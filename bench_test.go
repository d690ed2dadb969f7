// Benchmark harness: one sub-benchmark per row of the paper's figure
// table (§6), Table 1's configurations standalone, a DJSB stream and
// ablations over the design choices (poll frequency, oversubscription,
// a fully malleable NEST, placement, in-situ I/O). Each runs its
// workload end to end on the simulated cluster; all but the figures
// report the paper's metrics as testing.B custom metrics (total-s,
// avgresp-s, ...).
//
// These write no file and gate nothing; the repository's performance
// numbers come from `go run ./bench` (BENCHMARK.json).
//
// Run with: go test -run '^$' -bench . -benchtime 1x .
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// BenchmarkTable1Configs runs each Table-1 application configuration
// standalone under the Serial policy and reports its reference run
// time (the workload building blocks of §6).
func BenchmarkTable1Configs(b *testing.B) {
	for _, app := range []string{"nest", "coreneuron", "pils", "stream"} {
		specOf := map[string]apps.Spec{
			"nest": apps.NEST(), "coreneuron": apps.CoreNeuron(),
			"pils": apps.Pils(), "stream": apps.STREAM(),
		}
		for ci, cfg := range apps.Table1(app) {
			app, cfg := app, cfg
			b.Run(fmt.Sprintf("%s/Conf%d", app, ci+1), func(b *testing.B) {
				var res workload.Result
				for i := 0; i < b.N; i++ {
					sc := workload.Scenario{
						Name:  "table1",
						Nodes: 2,
						Subs: []workload.Submission{{Job: slurm.Job{
							Name: app, Spec: specOf[app], Cfg: cfg, Nodes: 2, Malleable: true,
						}}},
					}
					res = workload.Run(sc, slurm.PolicySerial)
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
				b.ReportMetric(res.Records.TotalRunTime(), "runtime-s")
			})
		}
	}
}

// BenchmarkFigures regenerates each row of the paper's figure table:
// the runs it reads, then its figures. Figures 2 and 3 read no paper
// run (cmd/figures narrates them), so theirs times an empty build.
func BenchmarkFigures(b *testing.B) {
	for _, f := range workload.Figures() {
		b.Run(f.ID, func(b *testing.B) {
			for range b.N {
				if _, err := f.Build(workload.RunPaper(f.Runs...)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
			var res workload.Result
			for i := 0; i < b.N; i++ {
				sc := workload.UC2(false)
				for s := range sc.Subs {
					spec := sc.Subs[s].Job.Spec
					spec.ChunkSeconds *= float64(coarse)
					sc.Subs[s].Job.Spec = spec
					sc.Subs[s].Job.Iters = max(1, sc.Subs[s].Job.Iters/coarse)
				}
				res = workload.Run(sc, slurm.PolicyDROM)
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
	for _, pol := range []slurm.Policy{slurm.PolicyDROM, slurm.PolicyOversubscribe, slurm.PolicyPreempt} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var res workload.Result
			for i := 0; i < b.N; i++ {
				res = workload.Run(workload.UC2(false), pol)
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
			var res workload.Result
			for i := 0; i < b.N; i++ {
				sc := workload.UC1("nest", apps.Config{Ranks: 2, Threads: 16},
					"pils", apps.Config{Ranks: 2, Threads: 1}, false)
				spec := apps.NEST()
				spec.FullyMalleable = fully
				sc.Subs[0].Job.Spec = spec
				res = workload.Run(sc, slurm.PolicyDROM)
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
	sc, err := workload.Spec{Paper: "djsb", Jobs: 25, MeanInterarrival: 150, Nodes: 2}.Scenario()
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []slurm.Policy{slurm.PolicySerial, slurm.PolicyDROM, slurm.PolicyOversubscribe} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var res workload.Result
			for i := 0; i < b.N; i++ {
				if res = workload.Run(sc, pol); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			st := workload.SchedStatsOf(sc, res)
			b.ReportMetric(st.Makespan, "makespan-s")
			b.ReportMetric(st.MeanResponse, "avgresp-s")
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
	run := func(withIO bool, pol slurm.Policy) float64 {
		sc := workload.UC1("nest", apps.Config{Ranks: 2, Threads: 16},
			"pils", apps.Config{Ranks: 2, Threads: 4}, false)
		if withIO {
			spec := sc.Subs[1].Job.Spec
			spec.InitSeconds += diskStagingSeconds
			sc.Subs[1].Job.Spec = spec
		}
		res := workload.Run(sc, pol)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		return res.Records.TotalRunTime()
	}
	b.Run("serial-with-disk-staging", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(true, slurm.PolicySerial)
		}
		b.ReportMetric(v, "total-s")
	})
	b.Run("drom-inmemory", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = run(false, slurm.PolicyDROM)
		}
		b.ReportMetric(v, "total-s")
	})
}

// BenchmarkEmptyPollDROM times DLB_PollDROM on the live library (not
// the simulator) for a polling-mode process with nothing pending: the
// cost of one polling point, the paper's "negligible overhead" claim.
// The async receiver is exercised behaviorally in the dlb and drom
// tests.
func BenchmarkEmptyPollDROM(b *testing.B) {
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
