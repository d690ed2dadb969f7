// Package repro is a from-scratch Go reproduction of "DROM: Enabling
// Efficient and Effortless Malleability for Resource Managers"
// (D'Amico, Garcia-Gasulla, López, Jokanovic, Sirvent, Corbalan —
// ICPP 2018).
//
// The public API is the paper's two libraries:
//
//   - repro/dlb  — the application-side DLB library (DLB_Init,
//     DLB_PollDROM, LeWI lend/borrow, callbacks)
//   - repro/drom — the administrator-side DROM interface (§3.2:
//     Attach, GetPidList, Get/SetProcessMask, PreInit, PostFinalize)
//
// The DROM-enabled SLURM cluster simulator that regenerates the
// paper's evaluation is driven through the binaries in cmd/ (slurmsim,
// figures, report, schedd, dromctl).
//
// Beyond the paper, internal/sched adds the scheduler-driven
// malleability the authors leave as future work: pluggable queue
// policies (FCFS, EASY backfill, malleable-shrink, malleable-expand)
// whose shrink/expand actions flow through the real DROM
// SetProcessMask path, exercised at scale by replaying Standard
// Workload Format traces (slurmsim -swf trace.swf) or seeded synthetic
// thousand-job workloads (slurmsim -sched easy,malleable -jobs 1000).
// Million-job traces replay in bounded memory through the streaming
// path (slurmsim -stream): the trace is
// parsed and generated lazily and job records fold into aggregate
// statistics, with decisions identical to the materialized replay
// for traces in submit order. On partitioned clusters each partition
// runs its own policy instance — possibly a different policy per
// partition (slurmsim -sched 'batch=easy,fat=malleable-shrink') — and
// the opt-in spillover pass
// (slurmsim -spill) re-routes queued jobs a congested partition
// cannot host to one that can, without ever delaying the host's EASY
// head reservation.
//
// internal/sweep fans whole experiment grids — policy × trace × seed,
// the shape of the paper's evaluation — across GOMAXPROCS workers,
// each experiment fully isolated, with results aggregated in grid
// order so the output is byte-identical at any worker count
// (slurmsim -sweep 'policies=all;seeds=1-4;jobs=5000').
//
// The machine model is a partitioned, heterogeneous cluster
// (hwmodel.ClusterSpec): named partitions with different node shapes,
// jobs routed by partition and never placed across a boundary, one
// policy pass per partition per cycle. Workloads are fault-aware —
// the SWF partition and status columns replay as partition routing,
// cancelled-while-queued events and mid-run failures that free CPUs
// early; the synthetic generator has seeded cancel/fail rates and a
// heterogeneous preset (slurmsim -cluster hetero -cancel .05 -fail
// .05). See ARCHITECTURE.md for the package map and data flow.
//
// The benchmark harness in bench_test.go regenerates every table and
// figure of the evaluation section; cmd/figures prints them. The
// repository's performance numbers come from one place, `go run
// ./bench`: five workloads (BENCHMARK.json) whose outputs are held to
// the digests in bench/expected.json.
package repro
