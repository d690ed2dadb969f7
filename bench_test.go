// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation (§6), plus ablations over the design choices
// called out in DESIGN.md. Each benchmark runs the corresponding
// workload end to end on the simulated cluster and reports the
// paper's metrics via testing.B custom metrics:
//
//	serial-s  total run time (or response) under the Serial baseline
//	drom-s    the same under DROM
//	gain-%    relative improvement of DROM over Serial
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"repro/internal/benchfmt"
	"repro/internal/obs"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/cluster"
	"repro/dlb"
	"repro/drom"
	"repro/internal/djsb"
	"repro/internal/shmem"
	"repro/internal/slurm"
	"repro/internal/sweep"
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
					sc.Subs[s].Job.Iters = maxInt(1, sc.Subs[s].Job.Iters/coarse)
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

// BenchmarkAblationNodeSelection compares the victim-node policies of
// the paper's future work (freest-first vs packing) on a 4-node DJSB
// stream.
func BenchmarkAblationNodeSelection(b *testing.B) {
	for _, sel := range []slurm.NodeSelection{slurm.SelectFreest, slurm.SelectPacked} {
		sel := sel
		b.Run(sel.String(), func(b *testing.B) {
			var rep djsb.Report
			for i := 0; i < b.N; i++ {
				sc, err := djsb.Generate(djsb.Params{
					Seed: 3, Jobs: 30, MeanInterarrival: 80, Nodes: 4, NodesPerJob: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				sc.NodeSelection = sel
				res := workload.Run(sc, slurm.PolicyDROM)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				rep = djsb.Summarize(res)
			}
			b.ReportMetric(rep.Makespan, "makespan-s")
			b.ReportMetric(rep.AvgResponse, "avgresp-s")
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

// BenchmarkSchedPolicies1000 is the bundled scale benchmark of the
// scheduling subsystem: a seeded 1000-job synthetic SWF trace on a
// 4-node cluster, replayed under every sched policy. The malleable
// policies must beat EASY on mean wait time — shrinking running jobs
// through DROM admits the queue head immediately instead of making it
// wait for a reservation.
func BenchmarkSchedPolicies1000(b *testing.B) {
	sc, err := cluster.SyntheticSWFScenario(cluster.SyntheticSWF{Seed: 1, Jobs: 1000, Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	stats := map[string]cluster.SchedStats{}
	for _, name := range cluster.SchedPolicyNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := cluster.NewSchedPolicy(name)
			if err != nil {
				b.Fatal(err)
			}
			var st cluster.SchedStats
			for i := 0; i < b.N; i++ {
				res := cluster.RunSched(sc, p)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				st = cluster.SchedStatsOf(sc, res)
			}
			stats[name] = st
			b.ReportMetric(st.MeanWait, "mean-wait-s")
			b.ReportMetric(st.P95Wait, "p95-wait-s")
			b.ReportMetric(st.MeanResponse, "mean-resp-s")
			b.ReportMetric(st.Makespan, "makespan-s")
			b.ReportMetric(st.MeanSlowdown, "mean-bsld")
		})
	}
	easy, haveEasy := stats["easy"]
	if !haveEasy {
		return // filtered run: nothing to compare against
	}
	if st, ok := stats["malleable-shrink"]; ok && st.MeanWait >= easy.MeanWait {
		b.Errorf("malleable-shrink mean wait %.1fs, want below EASY %.1fs", st.MeanWait, easy.MeanWait)
	}
	if st, ok := stats["malleable-expand"]; ok {
		if st.MeanWait >= easy.MeanWait {
			b.Errorf("malleable-expand mean wait %.1fs, want below EASY %.1fs", st.MeanWait, easy.MeanWait)
		}
		// Mean wait alone is gameable (admit everything on a sliver of
		// CPUs and let it crawl); the full malleable policy must also
		// win end-to-end turnaround.
		if st.MeanResponse >= easy.MeanResponse {
			b.Errorf("malleable-expand mean response %.1fs, want below EASY %.1fs",
				st.MeanResponse, easy.MeanResponse)
		}
	}
}

// replayEntry is the shared BENCH_sched.json measurement schema
// (internal/benchfmt), written here and checked by cmd/benchdiff.
type replayEntry = benchfmt.ReplayEntry

// updateBenchJSON read-modify-writes one top-level section of the
// bench reference file, so the three sched benchmarks can each
// refresh their own numbers.
func updateBenchJSON(b *testing.B, path, key string, value interface{}) {
	b.Helper()
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			b.Fatalf("%s: %v", path, err)
		}
	}
	raw, err := json.Marshal(value)
	if err != nil {
		b.Fatal(err)
	}
	doc[key] = raw
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("updated %s section %q", path, key)
}

// peakRSSMB reads the process high-water RSS from /proc (0 where
// unsupported).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// BenchmarkSchedReplay100k is the scale benchmark of the incremental
// scheduling cycle: a seeded 100,000-job synthetic SWF trace on a
// 4-node cluster, replayed end to end under every sched policy. It
// reports the end-to-end wall time, the number of policy cycles and
// simulation events, the mean cost of one cycle and the heap traffic
// per cycle. Committed reference numbers live in BENCH_sched.json;
// regenerate the sections with:
//
//	SCHED_BENCH_JSON=BENCH_sched.json \
//	  go test -run '^$' -bench 'SchedReplay100k|Sweep100k' -benchtime 1x .
//	SCHED_BENCH_JSON=BENCH_sched.json \
//	  go test -run '^$' -bench SchedReplay1M -benchtime 1x .
//
// (SchedReplay1M runs alone so its peak-RSS figure is not polluted by
// the materialized 100k scenarios held earlier in the same process.)
func BenchmarkSchedReplay100k(b *testing.B) {
	sc, err := cluster.SyntheticSWFScenario(cluster.SyntheticSWF{Seed: 1, Jobs: 100000, Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	byPolicy := map[string]replayEntry{}
	for _, name := range cluster.SchedPolicyNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := cluster.NewSchedPolicy(name)
			if err != nil {
				b.Fatal(err)
			}
			var e replayEntry
			for i := 0; i < b.N; i++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				res := cluster.RunSched(sc, p)
				wall := time.Since(t0)
				runtime.ReadMemStats(&m1)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				st := cluster.SchedStatsOf(sc, res)
				cycles := float64(res.SchedCycles)
				e = replayEntry{
					Policy:         name,
					Jobs:           res.Records.Count(),
					WallSeconds:    wall.Seconds(),
					Cycles:         res.SchedCycles,
					Steps:          res.Steps,
					Events:         res.Events,
					CycleMicros:    wall.Seconds() * 1e6 / cycles,
					AllocsPerCycle: float64(m1.Mallocs-m0.Mallocs) / cycles,
					BytesPerCycle:  float64(m1.TotalAlloc-m0.TotalAlloc) / cycles,
					MeanWaitS:      st.MeanWait,
					MakespanS:      st.Makespan,
				}
			}
			byPolicy[name] = e
			b.ReportMetric(e.WallSeconds, "wall-s")
			b.ReportMetric(float64(e.Cycles), "cycles")
			b.ReportMetric(e.CycleMicros, "us/cycle")
			b.ReportMetric(e.AllocsPerCycle, "allocs/cycle")
			b.ReportMetric(float64(e.Jobs)/e.WallSeconds, "jobs/s")
		})
	}
	if path := os.Getenv("SCHED_BENCH_JSON"); path != "" && len(byPolicy) == len(cluster.SchedPolicyNames()) {
		entries := make([]replayEntry, 0, len(byPolicy))
		for _, name := range cluster.SchedPolicyNames() {
			entries = append(entries, byPolicy[name])
		}
		updateBenchJSON(b, path, "sched_replay_100k", map[string]interface{}{
			"trace":    "synthetic SWF seed=1 jobs=100000 nodes=4",
			"policies": entries,
		})
	}
}

// BenchmarkSchedObs100k replays the same 100k trace as
// BenchmarkSchedReplay100k under fcfs with EVERY observability
// consumer attached: the JSONL decision trace and the virtual-time
// sampler draining into io.Discard, a job explainer following j00042,
// and the cycle-latency histograms. Its jobs/cycles/events are
// committed to BENCH_sched.json (section sched_obs) where
// cmd/benchdiff cross-checks them against the plain replay — the
// probes must not perturb a single scheduling decision — and gates
// the wall-time fields with -warn-pct. Regenerate together with the
// plain sections:
//
//	SCHED_BENCH_JSON=BENCH_sched.json \
//	  go test -run '^$' -bench 'SchedReplay100k|SchedObs100k|Sweep100k' -benchtime 1x .
func BenchmarkSchedObs100k(b *testing.B) {
	sc, err := cluster.SyntheticSWFScenario(cluster.SyntheticSWF{Seed: 1, Jobs: 100000, Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	p, err := cluster.NewSchedPolicy("fcfs")
	if err != nil {
		b.Fatal(err)
	}
	var e benchfmt.ObsEntry
	for i := 0; i < b.N; i++ {
		trace := obs.NewSchedTrace(io.Discard)
		sampler := obs.NewSampler(3600, io.Discard, false)
		explain := obs.NewExplain("j00042")
		hist := &obs.CycleHist{}
		sc.Probe = obs.Multi(trace, sampler, explain, hist)
		t0 := time.Now()
		res := cluster.RunSched(sc, p)
		wall := time.Since(t0)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if err := trace.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := sampler.Flush(); err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(explain.Story(), "started") {
			b.Fatalf("explainer lost j00042:\n%s", explain.Story())
		}
		toUs := func(ns int64) float64 { return float64(ns) / 1e3 }
		e = benchfmt.ObsEntry{
			Policy:       "fcfs",
			Jobs:         res.Records.Count(),
			WallSeconds:  wall.Seconds(),
			Cycles:       res.SchedCycles,
			Steps:        res.Steps,
			Events:       res.Events,
			CycleMicros:  wall.Seconds() * 1e6 / float64(res.SchedCycles),
			CycleSamples: hist.Cycle.Count(),
			SchedSamples: hist.Sched.Count(),
			CycleP50Us:   toUs(hist.Cycle.Quantile(0.50)),
			CycleP99Us:   toUs(hist.Cycle.Quantile(0.99)),
			CycleMaxUs:   toUs(hist.Cycle.Max()),
			SchedP50Us:   toUs(hist.Sched.Quantile(0.50)),
			SchedP99Us:   toUs(hist.Sched.Quantile(0.99)),
		}
	}
	sc.Probe = nil
	b.ReportMetric(e.WallSeconds, "wall-s")
	b.ReportMetric(e.CycleMicros, "us/cycle")
	b.ReportMetric(float64(e.CycleSamples), "cycle-samples")
	if path := os.Getenv("SCHED_BENCH_JSON"); path != "" {
		updateBenchJSON(b, path, "sched_obs", map[string]interface{}{
			"trace":  "synthetic SWF seed=1 jobs=100000 nodes=4, all probes attached",
			"probed": e,
		})
	}
}

// shmemOps drives a fixed count of complete DROM mask exchanges —
// administrator SetProcessMask, application poll-and-apply — against
// one registered process on a registry built over the given backend,
// and returns the measured per-exchange cost. This is the raw op cost
// of a backend, with no scheduler on top.
func shmemOps(b *testing.B, backend string, reg *shmem.Registry, ops int) benchfmt.ShmemOpEntry {
	b.Helper()
	node, err := dlb.NewNodeReg("bench0", 16, reg)
	if err != nil {
		b.Fatal(err)
	}
	p, err := dlb.Init(node, 0, dlb.CPURange(0, 15), "--drom")
	if err != nil {
		b.Fatal(err)
	}
	defer p.Finalize()
	admin, err := drom.Attach(node)
	if err != nil {
		b.Fatal(err)
	}
	defer admin.Detach()
	narrow, wide := dlb.CPURange(0, 7), dlb.CPURange(0, 15)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		mask := narrow
		if i%2 == 1 {
			mask = wide
		}
		if err := admin.SetProcessMask(p.PID(), mask, drom.None); err != nil {
			b.Fatal(err)
		}
		if _, _, ok, err := p.PollDROM(); err != nil || !ok {
			b.Fatalf("poll %d: applied=%v err=%v", i, ok, err)
		}
	}
	return benchfmt.ShmemOpEntry{
		Backend:     backend,
		Ops:         ops,
		MicrosPerOp: time.Since(t0).Seconds() * 1e6 / float64(ops),
	}
}

// BenchmarkSchedShmem pins the cost of the shmem.Backend interface
// (section sched_shmem of BENCH_sched.json). Its replay sub-benchmark
// re-runs the 100k fcfs trace of BenchmarkSchedReplay100k through the
// in-memory backend every simulation binary defaults to — now behind
// the Backend/Segment interface — and cmd/benchdiff cross-checks the
// entry against the plain sched_replay_100k one inside each document:
// identical deterministic outcomes, us_per_cycle within the tolerance
// factor, allocs_per_cycle within the alloc gate. The ops
// sub-benchmarks record the raw DROM exchange cost per backend: the
// file backend pays flock + decode + canonical re-encode on every
// operation, which is why it is the cross-process attach transport
// and not a replay default. Regenerate with:
//
//	SCHED_BENCH_JSON=BENCH_sched.json \
//	  go test -run '^$' -bench SchedShmem -benchtime 1x .
func BenchmarkSchedShmem(b *testing.B) {
	sc, err := cluster.SyntheticSWFScenario(cluster.SyntheticSWF{Seed: 1, Jobs: 100000, Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	var replay replayEntry
	var backends []benchfmt.ShmemOpEntry
	b.Run("replay-mem-fcfs", func(b *testing.B) {
		p, err := cluster.NewSchedPolicy("fcfs")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			res := cluster.RunSched(sc, p)
			wall := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			st := cluster.SchedStatsOf(sc, res)
			cycles := float64(res.SchedCycles)
			replay = replayEntry{
				Policy:         "fcfs",
				Jobs:           res.Records.Count(),
				WallSeconds:    wall.Seconds(),
				Cycles:         res.SchedCycles,
				Steps:          res.Steps,
				Events:         res.Events,
				CycleMicros:    wall.Seconds() * 1e6 / cycles,
				AllocsPerCycle: float64(m1.Mallocs-m0.Mallocs) / cycles,
				BytesPerCycle:  float64(m1.TotalAlloc-m0.TotalAlloc) / cycles,
				MeanWaitS:      st.MeanWait,
				MakespanS:      st.Makespan,
			}
		}
		b.ReportMetric(replay.WallSeconds, "wall-s")
		b.ReportMetric(replay.CycleMicros, "us/cycle")
		b.ReportMetric(replay.AllocsPerCycle, "allocs/cycle")
	})
	b.Run("ops-mem", func(b *testing.B) {
		var e benchfmt.ShmemOpEntry
		for i := 0; i < b.N; i++ {
			e = shmemOps(b, "mem", shmem.NewRegistryWith(shmem.NewMemBackend()), 100000)
		}
		backends = append(backends, e)
		b.ReportMetric(e.MicrosPerOp, "us/op")
	})
	b.Run("ops-file", func(b *testing.B) {
		var e benchfmt.ShmemOpEntry
		for i := 0; i < b.N; i++ {
			fb, err := shmem.NewFileBackend(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			e = shmemOps(b, "file", shmem.NewRegistryWith(fb), 2000)
			if err := fb.Close(); err != nil {
				b.Fatal(err)
			}
		}
		backends = append(backends, e)
		b.ReportMetric(e.MicrosPerOp, "us/op")
	})
	if path := os.Getenv("SCHED_BENCH_JSON"); path != "" && replay.Jobs > 0 && len(backends) == 2 {
		updateBenchJSON(b, path, "sched_shmem", map[string]interface{}{
			"trace":    "synthetic SWF seed=1 jobs=100000 nodes=4, in-memory backend + per-backend DROM op costs",
			"replay":   replay,
			"backends": backends,
		})
	}
}

// spilloverBenchSpecs are the policy cells of the spillover sweep:
// the two rigid single policies (whose queues back up enough to
// spill) and the mixed per-partition set.
var spilloverBenchSpecs = []string{"fcfs", "easy", "batch=easy,fat=malleable-shrink"}

// BenchmarkSchedSpillover is the scale benchmark of per-partition
// policies + cross-partition spillover: a seeded 20,000-job synthetic
// trace on the 2-partition hetero preset with fault annotations,
// replayed with the spillover pass on under each policy cell. The
// spill count is a deterministic replay outcome: BENCH_sched.json
// pins it (section sched_spillover) and cmd/benchdiff compares it
// exactly. Regenerate with:
//
//	SCHED_BENCH_JSON=BENCH_sched.json \
//	  go test -run '^$' -bench SchedSpillover -benchtime 1x .
func BenchmarkSchedSpillover(b *testing.B) {
	sc, err := cluster.SyntheticSWFScenario(cluster.SyntheticSWF{
		Seed: 1, Jobs: 20000, MeanInterarrival: 20,
		Cluster:    cluster.HeteroMN3(),
		CancelRate: 0.05, FailRate: 0.05,
	})
	if err != nil {
		b.Fatal(err)
	}
	sc.Spill = true
	bySpec := map[string]replayEntry{}
	for _, spec := range spilloverBenchSpecs {
		spec := spec
		b.Run(strings.ReplaceAll(spec, "=", ":"), func(b *testing.B) {
			ps, err := cluster.ParseSchedPolicySet(spec)
			if err != nil {
				b.Fatal(err)
			}
			var e replayEntry
			for i := 0; i < b.N; i++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				res := cluster.RunSchedSet(sc, ps)
				wall := time.Since(t0)
				runtime.ReadMemStats(&m1)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				if res.Records.Spilled() == 0 {
					b.Fatalf("%s: no spills on the contended hetero trace", spec)
				}
				st := cluster.SchedStatsOf(sc, res)
				cycles := float64(res.SchedCycles)
				e = replayEntry{
					Policy:         spec,
					Jobs:           res.Records.Count(),
					WallSeconds:    wall.Seconds(),
					Cycles:         res.SchedCycles,
					Steps:          res.Steps,
					Events:         res.Events,
					CycleMicros:    wall.Seconds() * 1e6 / cycles,
					AllocsPerCycle: float64(m1.Mallocs-m0.Mallocs) / cycles,
					BytesPerCycle:  float64(m1.TotalAlloc-m0.TotalAlloc) / cycles,
					MeanWaitS:      st.MeanWait,
					MakespanS:      st.Makespan,
					Spilled:        st.Spilled,
				}
			}
			bySpec[spec] = e
			b.ReportMetric(e.WallSeconds, "wall-s")
			b.ReportMetric(e.CycleMicros, "us/cycle")
			b.ReportMetric(float64(e.Spilled), "spilled")
		})
	}
	if path := os.Getenv("SCHED_BENCH_JSON"); path != "" && len(bySpec) == len(spilloverBenchSpecs) {
		entries := make([]replayEntry, 0, len(bySpec))
		for _, spec := range spilloverBenchSpecs {
			entries = append(entries, bySpec[spec])
		}
		updateBenchJSON(b, path, "sched_spillover", map[string]interface{}{
			"trace":    "synthetic SWF seed=1 jobs=20000 cluster=hetero cancel=0.05 fail=0.05 spill=1",
			"policies": entries,
		})
	}
}

// nodeFaultBenchPolicies are the policy cells of the failure-domain
// benchmark: one rigid backfiller and one malleable policy, which
// stress the degraded-capacity path differently (EASY re-anchors its
// reservation on the shrunk partition, the malleable policy reshapes
// survivors around the hole).
var nodeFaultBenchPolicies = []string{"easy", "malleable-expand"}

// BenchmarkSchedNodeFaults is the scale benchmark of node failure
// domains: the seeded 20,000-job hetero trace replayed with scripted
// outages, a seeded MTBF/MTTR background fault stream and a requeue
// cap of 1. The requeue, node-failed and downtime tallies are
// deterministic replay outcomes: BENCH_sched.json pins them (section
// sched_nodefaults) and cmd/benchdiff compares them exactly.
// Regenerate with:
//
//	SCHED_BENCH_JSON=BENCH_sched.json \
//	  go test -run '^$' -bench SchedNodeFaults -benchtime 1x .
func BenchmarkSchedNodeFaults(b *testing.B) {
	sc, err := cluster.SyntheticSWFScenario(cluster.SyntheticSWF{
		Seed: 1, Jobs: 20000, MeanInterarrival: 20,
		Cluster:    cluster.HeteroMN3(),
		CancelRate: 0.05, FailRate: 0.05,
	})
	if err != nil {
		b.Fatal(err)
	}
	sc.NodeFaults = "node0:down@5000..8000+node4:down@20000..26000+node2:drain@40000..60000"
	sc.MTBF = 20000
	sc.MTTR = 1500
	sc.MaxRequeues = 1
	sc.FaultSeed = 1
	byPolicy := map[string]replayEntry{}
	for _, name := range nodeFaultBenchPolicies {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := cluster.NewSchedPolicy(name)
			if err != nil {
				b.Fatal(err)
			}
			var e replayEntry
			for i := 0; i < b.N; i++ {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				res := cluster.RunSched(sc, p)
				wall := time.Since(t0)
				runtime.ReadMemStats(&m1)
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				if res.Records.Requeues() == 0 {
					b.Fatalf("%s: no requeues on the faulted hetero trace", name)
				}
				st := cluster.SchedStatsOf(sc, res)
				cycles := float64(res.SchedCycles)
				e = replayEntry{
					Policy:         name,
					Jobs:           res.Records.Count(),
					WallSeconds:    wall.Seconds(),
					Cycles:         res.SchedCycles,
					Steps:          res.Steps,
					Events:         res.Events,
					CycleMicros:    wall.Seconds() * 1e6 / cycles,
					AllocsPerCycle: float64(m1.Mallocs-m0.Mallocs) / cycles,
					BytesPerCycle:  float64(m1.TotalAlloc-m0.TotalAlloc) / cycles,
					MeanWaitS:      st.MeanWait,
					MakespanS:      st.Makespan,
					Requeues:       res.Records.Requeues(),
					NodeFailed:     res.Records.NodeFailed(),
					DownNodeS:      res.Records.DownNodeSeconds(),
				}
			}
			byPolicy[name] = e
			b.ReportMetric(e.WallSeconds, "wall-s")
			b.ReportMetric(e.CycleMicros, "us/cycle")
			b.ReportMetric(float64(e.Requeues), "requeues")
			b.ReportMetric(float64(e.NodeFailed), "node-failed")
		})
	}
	if path := os.Getenv("SCHED_BENCH_JSON"); path != "" && len(byPolicy) == len(nodeFaultBenchPolicies) {
		entries := make([]replayEntry, 0, len(byPolicy))
		for _, name := range nodeFaultBenchPolicies {
			entries = append(entries, byPolicy[name])
		}
		updateBenchJSON(b, path, "sched_nodefaults", map[string]interface{}{
			"trace":    "synthetic SWF seed=1 jobs=20000 cluster=hetero cancel=0.05 fail=0.05 nodefaults=scripted+mtbf=20000 mttr=1500 requeue=1 faultseed=1",
			"policies": entries,
		})
	}
}

// BenchmarkSchedReplay1M replays a million-job synthetic SWF trace
// through the streaming path: the trace is generated lazily, the
// engine holds one pending submission event, and job records fold
// into aggregates — memory stays bounded by the scheduler backlog
// instead of growing with the trace. The benchmark fails if the heap
// in use after the replay exceeds 256 MB, which a materialized replay
// of this trace blows through several times over.
func BenchmarkSchedReplay1M(b *testing.B) {
	const jobs = 1000000
	params := cluster.SyntheticSWF{Seed: 1, Jobs: jobs, Nodes: 4}
	var e replayEntry
	for i := 0; i < b.N; i++ {
		p, err := cluster.NewSchedPolicy("fcfs")
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res := cluster.RunSchedStream(cluster.Scenario{Nodes: 4}, params.Source(), p)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		heapMB := float64(m1.HeapAlloc) / (1 << 20)
		if heapMB > 256 {
			b.Errorf("streaming 1M replay left %.0f MB on the heap; memory is not bounded", heapMB)
		}
		st := cluster.SchedStatsOfStream(res)
		cycles := float64(res.SchedCycles)
		e = replayEntry{
			Policy:         "fcfs",
			Jobs:           res.Records.Count(),
			WallSeconds:    wall.Seconds(),
			Cycles:         res.SchedCycles,
			Steps:          res.Steps,
			Events:         res.Events,
			CycleMicros:    wall.Seconds() * 1e6 / cycles,
			AllocsPerCycle: float64(m1.Mallocs-m0.Mallocs) / cycles,
			BytesPerCycle:  float64(m1.TotalAlloc-m0.TotalAlloc) / cycles,
			MeanWaitS:      st.MeanWait,
			MakespanS:      st.Makespan,
			HeapMB:         heapMB,
			PeakRSSMB:      peakRSSMB(),
		}
		if e.Jobs != jobs {
			b.Errorf("replayed %d of %d jobs", e.Jobs, jobs)
		}
	}
	b.ReportMetric(e.WallSeconds, "wall-s")
	b.ReportMetric(e.CycleMicros, "us/cycle")
	b.ReportMetric(float64(e.Jobs)/e.WallSeconds, "jobs/s")
	b.ReportMetric(e.HeapMB, "heap-MB")
	b.ReportMetric(e.PeakRSSMB, "peak-rss-MB")
	if path := os.Getenv("SCHED_BENCH_JSON"); path != "" {
		updateBenchJSON(b, path, "sched_replay_1m", map[string]interface{}{
			"trace":  "synthetic SWF seed=1 jobs=1000000 nodes=4 (streamed)",
			"replay": e,
		})
	}
}

// BenchmarkSweep100k4Policies runs the full 4-policy × 100k-job grid
// through the parallel sweep engine on GOMAXPROCS workers, against a
// genuinely sequential baseline: the same grid on ONE worker, whose
// per-experiment walls are honest single-policy replay times (walls
// measured inside the parallel run would track the sweep wall itself
// and could never fail the bound). On a machine with ≥4 cores the
// parallel sweep must finish within 1.5× the slowest sequential
// single-policy replay — the experiments are independent, so the only
// overheads are scenario sharing and scheduler noise. On fewer cores
// the bound is reported but not enforced.
func BenchmarkSweep100k4Policies(b *testing.B) {
	grid := sweep.Grid{Seeds: []int64{1}, Jobs: 100000, Nodes: 4}
	type sweepBench struct {
		Workers           int     `json:"workers"`
		WallSeconds       float64 `json:"wall_seconds"`
		SumSingleSeconds  float64 `json:"sum_single_seconds"`
		SlowestSingleSecs float64 `json:"slowest_single_seconds"`
		Speedup           float64 `json:"speedup"`
	}
	var sb sweepBench
	for i := 0; i < b.N; i++ {
		seq, err := sweep.Run(grid, 1)
		if err != nil {
			b.Fatal(err)
		}
		sb = sweepBench{}
		for _, r := range seq.Results {
			sb.SumSingleSeconds += r.WallSeconds
			if r.WallSeconds > sb.SlowestSingleSecs {
				sb.SlowestSingleSecs = r.WallSeconds
			}
		}
		par, err := sweep.Run(grid, 0)
		if err != nil {
			b.Fatal(err)
		}
		sb.Workers = par.Workers
		sb.WallSeconds = par.WallSeconds
		sb.Speedup = sb.SumSingleSeconds / sb.WallSeconds
		if runtime.GOMAXPROCS(0) >= 4 && sb.WallSeconds > 1.5*sb.SlowestSingleSecs {
			b.Errorf("parallel sweep wall %.2fs exceeds 1.5x slowest sequential single policy (%.2fs) on %d workers",
				sb.WallSeconds, sb.SlowestSingleSecs, sb.Workers)
		}
	}
	b.ReportMetric(sb.WallSeconds, "wall-s")
	b.ReportMetric(sb.SlowestSingleSecs, "slowest-single-s")
	b.ReportMetric(sb.Speedup, "speedup")
	b.ReportMetric(float64(sb.Workers), "workers")
	if path := os.Getenv("SCHED_BENCH_JSON"); path != "" {
		updateBenchJSON(b, path, "sweep_100k_4policies", sb)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
