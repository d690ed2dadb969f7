// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§6), plus ablations over its design choices
// (poll frequency, oversubscription, placement, node selection,
// in-situ I/O). Each benchmark runs the corresponding workload end to
// end on the simulated cluster and reports the paper's metrics via
// testing.B custom metrics:
//
//	serial-s  total run time (or response) under the Serial baseline
//	drom-s    the same under DROM
//	gain-%    relative improvement of DROM over Serial
//
// These write no file and gate nothing; the repository's performance
// numbers come from `go run ./bench` (BENCHMARK.json).
//
// Run with: go test -run '^$' -bench . -benchtime 1x .
package repro_test

import (
	"fmt"
	"testing"

	"repro/cluster"
	"repro/internal/djsb"
	"repro/internal/workload"
)

// runPair executes a scenario under Serial and DROM once.
func runPair(b *testing.B, sc cluster.Scenario) (serial, drom cluster.Result) {
	b.Helper()
	serial, drom = cluster.Compare(sc)
	if serial.Err != nil || drom.Err != nil {
		b.Fatalf("scenario %s: %v / %v", sc.Name, serial.Err, drom.Err)
	}
	return serial, drom
}

func reportTotals(b *testing.B, serial, drom cluster.Result) {
	b.ReportMetric(serial.Records.TotalRunTime(), "serial-s")
	b.ReportMetric(drom.Records.TotalRunTime(), "drom-s")
	b.ReportMetric(100*cluster.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime()), "gain-%")
}

func reportAvgResponse(b *testing.B, serial, drom cluster.Result) {
	b.ReportMetric(serial.Records.AvgResponseTime(), "serial-s")
	b.ReportMetric(drom.Records.AvgResponseTime(), "drom-s")
	b.ReportMetric(100*cluster.Gain(serial.Records.AvgResponseTime(), drom.Records.AvgResponseTime()), "gain-%")
}

// uc1Bench runs the (simulator × analytics) grid as sub-benchmarks.
func uc1Bench(b *testing.B, simName, anaName string, report func(*testing.B, cluster.Result, cluster.Result)) {
	for si, simCfg := range cluster.Table1(simName) {
		for ai, anaCfg := range cluster.Table1(anaName) {
			name := fmt.Sprintf("%sC%d+%sC%d", simName, si+1, anaName, ai+1)
			simCfg, anaCfg := simCfg, anaCfg
			b.Run(name, func(b *testing.B) {
				var serial, drom cluster.Result
				for i := 0; i < b.N; i++ {
					serial, drom = runPair(b, cluster.UC1(simName, simCfg, anaName, anaCfg, false))
				}
				report(b, serial, drom)
			})
		}
	}
}

// BenchmarkTable1Configs runs each Table-1 application configuration
// standalone under the Serial policy and reports its reference run
// time (the workload building blocks of §6).
func BenchmarkTable1Configs(b *testing.B) {
	for _, app := range []string{"nest", "coreneuron", "pils", "stream"} {
		specOf := map[string]cluster.AppSpec{
			"nest": cluster.NEST(), "coreneuron": cluster.CoreNeuron(),
			"pils": cluster.Pils(), "stream": cluster.STREAM(),
		}
		for ci, cfg := range cluster.Table1(app) {
			app, cfg := app, cfg
			b.Run(fmt.Sprintf("%s/Conf%d", app, ci+1), func(b *testing.B) {
				var res cluster.Result
				for i := 0; i < b.N; i++ {
					sc := cluster.Scenario{
						Name:  "table1",
						Nodes: 2,
						Subs: []cluster.Submission{{Job: cluster.Job{
							Name: app, Spec: specOf[app], Cfg: cfg, Nodes: 2, Malleable: true,
						}}},
					}
					res = cluster.Run(sc, cluster.Serial)
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
				b.ReportMetric(res.Records.TotalRunTime(), "runtime-s")
			})
		}
	}
}

// BenchmarkFigure2Protocol measures one full DROM launch/termination
// cycle (launch_request → PreInit → poll → PostFinalize →
// release_resources) against a running job.
func BenchmarkFigure2Protocol(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := cluster.Scenario{
			Name:  "fig2",
			Nodes: 2,
			Subs: []cluster.Submission{
				{Job: cluster.Job{Name: "job1", Spec: cluster.Pils(), Cfg: cluster.Config{Ranks: 2, Threads: 16},
					Iters: 200, Nodes: 2, Malleable: true}},
				{At: 20, Job: cluster.Job{Name: "job2", Spec: cluster.Pils(), Cfg: cluster.Config{Ranks: 4, Threads: 4},
					Iters: 50, Nodes: 2, Malleable: true}},
			},
		}
		if res := cluster.Run(sc, cluster.DROM); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkFigure3Schematic runs the UC1 schematic workload traced.
func BenchmarkFigure3Schematic(b *testing.B) {
	var serial, drom cluster.Result
	for i := 0; i < b.N; i++ {
		serial, drom = runPair(b, cluster.UC1("nest", cluster.Config{Ranks: 2, Threads: 16},
			"pils", cluster.Config{Ranks: 2, Threads: 4}, true))
	}
	reportTotals(b, serial, drom)
}

// BenchmarkFigure4 regenerates Figure 4: NEST+Pils total run times.
func BenchmarkFigure4(b *testing.B) { uc1Bench(b, "nest", "pils", reportTotals) }

// BenchmarkFigure5 regenerates the Figure 5 trace (NEST thread
// imbalance after a shrink) and reports the idle bubble size.
func BenchmarkFigure5(b *testing.B) {
	var res workload.Result
	for i := 0; i < b.N; i++ {
		var err error
		var fig workload.FigureData
		res, fig, err = workload.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		_ = fig
	}
	stats := res.Tracer.ThreadUtilization("nest",
		workload.AnalyticsSubmitTime+100, workload.AnalyticsSubmitTime+200)
	var busy, idle float64
	for _, st := range stats {
		if st.Rank != 0 {
			continue
		}
		if st.Thread < 4 {
			busy += st.Utilization / 4
		} else if st.Thread < 15 {
			idle += st.Utilization / 11
		}
	}
	b.ReportMetric(busy, "spread-util")
	b.ReportMetric(idle, "rest-util")
}

// BenchmarkFigure6 regenerates Figure 6: NEST+Pils response times.
func BenchmarkFigure6(b *testing.B) {
	uc1Bench(b, "nest", "pils", func(b *testing.B, serial, drom cluster.Result) {
		ps, _ := serial.Records.Job("pils")
		pd, _ := drom.Records.Job("pils")
		ns, _ := serial.Records.Job("nest")
		nd, _ := drom.Records.Job("nest")
		b.ReportMetric(ps.ResponseTime(), "pils-serial-s")
		b.ReportMetric(pd.ResponseTime(), "pils-drom-s")
		b.ReportMetric(ns.ResponseTime(), "nest-serial-s")
		b.ReportMetric(nd.ResponseTime(), "nest-drom-s")
	})
}

// BenchmarkFigure7 regenerates Figure 7: NEST+STREAM run and response.
func BenchmarkFigure7(b *testing.B) {
	uc1Bench(b, "nest", "stream", func(b *testing.B, serial, drom cluster.Result) {
		reportTotals(b, serial, drom)
		ss, _ := serial.Records.Job("stream")
		sd, _ := drom.Records.Job("stream")
		b.ReportMetric(ss.ResponseTime(), "stream-serial-s")
		b.ReportMetric(sd.ResponseTime(), "stream-drom-s")
	})
}

// BenchmarkFigure8 regenerates Figure 8: NEST workloads average
// response time.
func BenchmarkFigure8(b *testing.B) {
	for _, ana := range []string{"pils", "stream"} {
		uc1Bench(b, "nest", ana, reportAvgResponse)
	}
}

// BenchmarkFigure9 regenerates Figure 9: CoreNeuron+Pils run times.
func BenchmarkFigure9(b *testing.B) { uc1Bench(b, "coreneuron", "pils", reportTotals) }

// BenchmarkFigure10 regenerates Figure 10: CoreNeuron+Pils responses.
func BenchmarkFigure10(b *testing.B) {
	uc1Bench(b, "coreneuron", "pils", func(b *testing.B, serial, drom cluster.Result) {
		ps, _ := serial.Records.Job("pils")
		pd, _ := drom.Records.Job("pils")
		b.ReportMetric(ps.ResponseTime(), "pils-serial-s")
		b.ReportMetric(pd.ResponseTime(), "pils-drom-s")
	})
}

// BenchmarkFigure11 regenerates Figure 11: CoreNeuron+STREAM.
func BenchmarkFigure11(b *testing.B) { uc1Bench(b, "coreneuron", "stream", reportTotals) }

// BenchmarkFigure12 regenerates Figure 12: CoreNeuron workloads
// average response time.
func BenchmarkFigure12(b *testing.B) {
	for _, ana := range []string{"pils", "stream"} {
		uc1Bench(b, "coreneuron", ana, reportAvgResponse)
	}
}

// BenchmarkFigure13 regenerates Figure 13: UC2 total run time (the
// paper reports a 2.5% improvement) with full traces.
func BenchmarkFigure13(b *testing.B) {
	var serial, drom cluster.Result
	for i := 0; i < b.N; i++ {
		serial, drom = runPair(b, cluster.UC2(true))
	}
	reportTotals(b, serial, drom)
}

// BenchmarkFigure14 regenerates Figure 14: UC2 IPC comparability.
func BenchmarkFigure14(b *testing.B) {
	var fig workload.FigureData
	for i := 0; i < b.N; i++ {
		serial, drom, _, err := workload.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		fig = workload.Figure14(serial, drom)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			b.ReportMetric(p.Y, s.Label+"/"+p.X[:4])
		}
	}
}

// BenchmarkFigure15 regenerates Figure 15: UC2 average response time
// (the paper reports a 10% improvement).
func BenchmarkFigure15(b *testing.B) {
	var serial, drom cluster.Result
	for i := 0; i < b.N; i++ {
		serial, drom = runPair(b, cluster.UC2(false))
	}
	reportAvgResponse(b, serial, drom)
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------

// BenchmarkAblationPollFrequency varies the application's malleability
// point frequency (iteration length) and reports the UC2 DROM total:
// the paper's polling receiver "relies exclusively on the frequency of
// the programming model invocation".
func BenchmarkAblationPollFrequency(b *testing.B) {
	for _, coarse := range []int{1, 4, 16, 64} {
		coarse := coarse
		b.Run(fmt.Sprintf("iter-x%d", coarse), func(b *testing.B) {
			var res cluster.Result
			for i := 0; i < b.N; i++ {
				sc := cluster.UC2(false)
				for s := range sc.Subs {
					spec := sc.Subs[s].Job.Spec
					spec.ChunkSeconds *= float64(coarse)
					sc.Subs[s].Job.Spec = spec
					sc.Subs[s].Job.Iters = max(1, sc.Subs[s].Job.Iters/coarse)
				}
				res = cluster.Run(sc, cluster.DROM)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			b.ReportMetric(res.Records.TotalRunTime(), "drom-s")
		})
	}
}

// BenchmarkAblationOversubscription compares DROM's disjoint
// repartition against the two §6.2 alternatives the paper dismisses:
// time-shared co-allocation (oversubscription) and checkpoint/restart
// preemption, all on UC2.
func BenchmarkAblationOversubscription(b *testing.B) {
	for _, pol := range []cluster.Policy{cluster.DROM, cluster.Oversubscribe, cluster.Preempt} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var res cluster.Result
			for i := 0; i < b.N; i++ {
				res = cluster.Run(cluster.UC2(false), pol)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			b.ReportMetric(res.Records.TotalRunTime(), "total-s")
			b.ReportMetric(res.Records.AvgResponseTime(), "avgresp-s")
		})
	}
}

// BenchmarkAblationMalleableNest quantifies the paper's hypothesis
// that a fully malleable NEST (no static partition) improves the
// in-situ result.
func BenchmarkAblationMalleableNest(b *testing.B) {
	for _, fully := range []bool{false, true} {
		fully := fully
		name := "static-partition"
		if fully {
			name = "fully-malleable"
		}
		b.Run(name, func(b *testing.B) {
			var res cluster.Result
			for i := 0; i < b.N; i++ {
				sc := cluster.UC1("nest", cluster.Config{Ranks: 2, Threads: 16},
					"pils", cluster.Config{Ranks: 2, Threads: 1}, false)
				spec := cluster.NEST()
				spec.FullyMalleable = fully
				sc.Subs[0].Job.Spec = spec
				res = cluster.Run(sc, cluster.DROM)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			b.ReportMetric(res.Records.TotalRunTime(), "total-s")
		})
	}
}

// BenchmarkAblationPlacement quantifies the socket-aware placement of
// §5: the same two co-allocated NEST ranks on socket-compact masks
// (what the task/affinity extension produces) versus interleaved
// masks spanning both sockets (what a naive scatter would produce).
func BenchmarkAblationPlacement(b *testing.B) {
	run := func(b *testing.B, scattered bool) float64 {
		pair := compactMaskPair()
		if scattered {
			pair = interleavedMaskPair()
		}
		total, err := runPinnedPair(pair)
		if err != nil {
			b.Fatal(err)
		}
		return total
	}
	b.Run("socket-compact", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(b, false)
		}
		b.ReportMetric(v, "total-s")
	})
	b.Run("interleaved", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(b, true)
		}
		b.ReportMetric(v, "total-s")
	})
}

// BenchmarkDJSBPolicies runs a DJSB-style randomized stream (the
// paper's reference [26] methodology) under all three policies and
// reports makespan and average response.
func BenchmarkDJSBPolicies(b *testing.B) {
	params := djsb.Params{Seed: 1, Jobs: 25, MeanInterarrival: 150, Nodes: 2}
	for _, pol := range []cluster.Policy{cluster.Serial, cluster.DROM, cluster.Oversubscribe} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var rep djsb.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = djsb.Run(params, pol)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Makespan, "makespan-s")
			b.ReportMetric(rep.AvgResponse, "avgresp-s")
			b.ReportMetric(rep.Throughput, "jobs/ks")
		})
	}
}

// BenchmarkAblationInSituIO quantifies the §6.1 motivation for in-situ
// analytics: running the analytics after the simulation (Serial)
// additionally pays the disk staging of the partial results, which the
// DROM in-memory coupling avoids ("avoiding reading and writing data
// to disk in case the analytics is able to exchange data with the
// simulation in-memory"). The staging cost is modeled as extra
// initialization time on the decoupled analytics.
func BenchmarkAblationInSituIO(b *testing.B) {
	const diskStagingSeconds = 90
	run := func(withIO bool, pol cluster.Policy) float64 {
		sc := cluster.UC1("nest", cluster.Config{Ranks: 2, Threads: 16},
			"pils", cluster.Config{Ranks: 2, Threads: 4}, false)
		if withIO {
			spec := sc.Subs[1].Job.Spec
			spec.InitSeconds += diskStagingSeconds
			sc.Subs[1].Job.Spec = spec
		}
		res := cluster.Run(sc, pol)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		return res.Records.TotalRunTime()
	}
	b.Run("serial-with-disk-staging", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(true, cluster.Serial)
		}
		b.ReportMetric(v, "total-s")
	})
	b.Run("drom-inmemory", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(false, cluster.DROM)
		}
		b.ReportMetric(v, "total-s")
	})
}

// BenchmarkAblationAsyncVsPolling measures real-time reaction latency
// of the two receiver modes of §3.1 on the live library (not the
// simulator): how long between SetProcessMask and the mask being
// applied, with a polling loop vs the async helper.
func BenchmarkAblationAsyncVsPolling(b *testing.B) {
	// Covered behaviorally in internal/dlbcore tests; here we measure
	// the polling-point overhead claim: an empty poll costs nanoseconds
	// ("negligible overhead").
	node := newBenchNode(b)
	p, err := nodeInit(node, "--drom")
	if err != nil {
		b.Fatal(err)
	}
	defer p.Finalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PollDROM()
	}
}
