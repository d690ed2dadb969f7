// Command benchdiff compares two BENCH_sched.json files — the
// committed baseline and a freshly generated candidate — and fails
// when the candidate regresses.
//
// Replay outcomes that must not change at all (job counts, scheduling
// cycles, simulation steps and executed events, mean wait, makespan,
// spill, requeue and node-failure tallies) are compared
// exactly: they are deterministic, so any difference means the
// scheduler's decisions changed. Wall-clock derived numbers
// (us_per_cycle) are machine-dependent and only fail when the
// candidate is slower than baseline × tolerance; allocation counts
// per cycle are nearly deterministic and get a tight factor.
//
// A second, softer gate covers the timing fields that are expected to
// move between machines and runs: -warn-pct emits a warning (exit
// status unaffected) when wall_seconds or us_per_cycle deviates from
// baseline by more than the given percentage in either direction —
// loud enough to notice creeping drift, quiet enough not to flake CI.
//
// The sched_obs section (the probes-enabled replay) is compared like
// the others: its deterministic outcomes — jobs, cycles, steps, events,
// histogram sample counts — diff exactly, and are additionally
// cross-checked against the plain 100k replay of the same document,
// proving the attached probes did not perturb a single decision.
//
// The sched_schedd section (the what-if service benchmark) splits the
// same way: the prediction aggregates (answered count, mean predicted
// start/wait at a fixed fork point) are deterministic and diff
// exactly — a drift means simulation forking stopped being
// decision-invisible — while the query latency fields fall under the
// tolerance factor (p99_ms) and the -warn-pct soft gate.
//
// The sched_shmem section pins the shmem.Backend interface: its
// replay entry (the 100k fcfs replay through the in-memory backend)
// is cross-checked against the plain sched_replay_100k entry of the
// same document — identical deterministic outcomes, us_per_cycle
// within the tolerance factor and allocs_per_cycle within the alloc
// gate — so the interface indirection demonstrably costs nothing on
// the replay hot path. Its per-backend DROM op micro-costs diff with
// exact op counts and tolerance-gated us_per_op.
//
// Usage:
//
//	benchdiff [-tolerance 3.0] [-warn-pct 25] baseline.json candidate.json
package main

import (
	"repro/internal/benchfmt"
	"repro/internal/version"

	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// replayEntry and benchDoc come from the shared schema package, so
// the JSON tags cannot drift from what the bench harness writes.
type replayEntry = benchfmt.ReplayEntry

type benchDoc = benchfmt.Doc

// diff returns the regression findings (hard failures) and warnings
// (soft timing drift beyond warnPct, in percent; 0 disables) between
// baseline and candidate.
func diff(baseline, candidate []byte, tolerance, warnPct float64) (findings, warnings []string, err error) {
	var base, cand benchDoc
	if err := json.Unmarshal(baseline, &base); err != nil {
		return nil, nil, fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(candidate, &cand); err != nil {
		return nil, nil, fmt.Errorf("candidate: %w", err)
	}
	add := func(format string, args ...interface{}) {
		findings = append(findings, fmt.Sprintf(format, args...))
	}
	// warn flags |candidate-baseline| > warnPct% of baseline, both
	// directions: a surprise speed-up usually means the benchmark
	// stopped measuring what it used to.
	warn := func(name, field string, b, c float64) {
		if warnPct <= 0 || b <= 0 {
			return
		}
		if dev := (c - b) / b * 100; dev > warnPct || dev < -warnPct {
			warnings = append(warnings, fmt.Sprintf("%s: %s %.3g deviates %+.1f%% from baseline %.3g (warn threshold %.0f%%)",
				name, field, c, dev, b, warnPct))
		}
	}
	compare := func(name string, b, c replayEntry) {
		if c.Jobs != b.Jobs {
			add("%s: jobs %d, baseline %d", name, c.Jobs, b.Jobs)
		}
		if c.Spilled != b.Spilled {
			add("%s: spilled %d, baseline %d (decisions changed)", name, c.Spilled, b.Spilled)
		}
		if c.Requeues != b.Requeues {
			add("%s: requeues %d, baseline %d (decisions changed)", name, c.Requeues, b.Requeues)
		}
		if c.NodeFailed != b.NodeFailed {
			add("%s: node_failed %d, baseline %d (decisions changed)", name, c.NodeFailed, b.NodeFailed)
		}
		if c.DownNodeS != b.DownNodeS {
			add("%s: down_node_s %g, baseline %g (decisions changed)", name, c.DownNodeS, b.DownNodeS)
		}
		if c.Cycles != b.Cycles {
			add("%s: sched_cycles %d, baseline %d (decisions changed)", name, c.Cycles, b.Cycles)
		}
		if c.Steps != b.Steps {
			add("%s: sim_steps %d, baseline %d (decisions changed)", name, c.Steps, b.Steps)
		}
		if c.Events != b.Events {
			add("%s: sim_events %d, baseline %d (the engine executes a different share of the same steps)", name, c.Events, b.Events)
		}
		if c.MeanWaitS != b.MeanWaitS {
			add("%s: mean_wait_s %g, baseline %g (decisions changed)", name, c.MeanWaitS, b.MeanWaitS)
		}
		if c.MakespanS != b.MakespanS {
			add("%s: makespan_s %g, baseline %g (decisions changed)", name, c.MakespanS, b.MakespanS)
		}
		if b.CycleMicros > 0 && c.CycleMicros > b.CycleMicros*tolerance {
			add("%s: us_per_cycle %.2f exceeds baseline %.2f x %.1f", name, c.CycleMicros, b.CycleMicros, tolerance)
		}
		// Allocation counts barely vary between runs; a jump means a
		// hot-path allocation crept back in.
		if b.AllocsPerCycle > 0 && c.AllocsPerCycle > b.AllocsPerCycle*1.5+5 {
			add("%s: allocs_per_cycle %.1f exceeds baseline %.1f x 1.5", name, c.AllocsPerCycle, b.AllocsPerCycle)
		}
		warn(name, "us_per_cycle", b.CycleMicros, c.CycleMicros)
		warn(name, "wall_seconds", b.WallSeconds, c.WallSeconds)
	}
	compareObs := func(name string, b, c benchfmt.ObsEntry) {
		if c.Jobs != b.Jobs {
			add("%s: jobs %d, baseline %d", name, c.Jobs, b.Jobs)
		}
		if c.Cycles != b.Cycles {
			add("%s: sched_cycles %d, baseline %d (decisions changed)", name, c.Cycles, b.Cycles)
		}
		if c.Steps != b.Steps {
			add("%s: sim_steps %d, baseline %d (decisions changed)", name, c.Steps, b.Steps)
		}
		if c.Events != b.Events {
			add("%s: sim_events %d, baseline %d (the engine executes a different share of the same steps)", name, c.Events, b.Events)
		}
		if c.CycleSamples != b.CycleSamples {
			add("%s: cycle_samples %d, baseline %d (probe coverage changed)", name, c.CycleSamples, b.CycleSamples)
		}
		if c.SchedSamples != b.SchedSamples {
			add("%s: schedule_samples %d, baseline %d (probe coverage changed)", name, c.SchedSamples, b.SchedSamples)
		}
		if b.CycleMicros > 0 && c.CycleMicros > b.CycleMicros*tolerance {
			add("%s: us_per_cycle %.2f exceeds baseline %.2f x %.1f", name, c.CycleMicros, b.CycleMicros, tolerance)
		}
		warn(name, "us_per_cycle", b.CycleMicros, c.CycleMicros)
		warn(name, "wall_seconds", b.WallSeconds, c.WallSeconds)
	}
	compareSchedD := func(name string, b, c benchfmt.SchedDEntry) {
		if c.Jobs != b.Jobs {
			add("%s: jobs %d, baseline %d", name, c.Jobs, b.Jobs)
		}
		if c.Queries != b.Queries {
			add("%s: queries %d, baseline %d", name, c.Queries, b.Queries)
		}
		if c.Answered != b.Answered {
			add("%s: answered %d, baseline %d (predictions changed)", name, c.Answered, b.Answered)
		}
		if c.ForkedAt != b.ForkedAt {
			add("%s: forked_at %g, baseline %g (fork point moved)", name, c.ForkedAt, b.ForkedAt)
		}
		if c.MeanStartS != b.MeanStartS {
			add("%s: mean_predicted_start_s %g, baseline %g (predictions changed)", name, c.MeanStartS, b.MeanStartS)
		}
		if c.MeanWaitS != b.MeanWaitS {
			add("%s: mean_predicted_wait_s %g, baseline %g (predictions changed)", name, c.MeanWaitS, b.MeanWaitS)
		}
		if b.P99Ms > 0 && c.P99Ms > b.P99Ms*tolerance {
			add("%s: p99_ms %.2f exceeds baseline %.2f x %.1f", name, c.P99Ms, b.P99Ms, tolerance)
		}
		warn(name, "mean_ms", b.MeanMs, c.MeanMs)
		warn(name, "wall_seconds", b.WallSeconds, c.WallSeconds)
	}
	// crossCheckObs proves the probes are decision-preserving inside a
	// single document: the probed replay must reach the same outcomes
	// as the plain replay of the same trace and policy.
	crossCheckObs := func(who string, doc benchDoc) {
		if doc.Obs == nil || doc.Replay100k == nil {
			return
		}
		o := doc.Obs.Probed
		for _, p := range doc.Replay100k.Policies {
			if p.Policy != o.Policy {
				continue
			}
			if o.Jobs != p.Jobs || o.Cycles != p.Cycles || o.Steps != p.Steps || o.Events != p.Events {
				add("%s sched_obs: probed replay (jobs=%d cycles=%d steps=%d events=%d) diverges from plain sched_replay_100k/%s (jobs=%d cycles=%d steps=%d events=%d) — probes perturbed decisions",
					who, o.Jobs, o.Cycles, o.Steps, o.Events, p.Policy, p.Jobs, p.Cycles, p.Steps, p.Events)
			}
			return
		}
	}
	// crossCheckShmem proves the backend interface is free inside a
	// single document: the replay driven through the explicit backend
	// must reach the same outcomes as the plain replay of the same
	// trace and policy, at the same per-cycle cost and heap traffic.
	crossCheckShmem := func(who string, doc benchDoc) {
		if doc.Shmem == nil || doc.Replay100k == nil {
			return
		}
		s := doc.Shmem.Replay
		for _, p := range doc.Replay100k.Policies {
			if p.Policy != s.Policy {
				continue
			}
			if s.Jobs != p.Jobs || s.Cycles != p.Cycles || s.Steps != p.Steps || s.Events != p.Events ||
				s.MeanWaitS != p.MeanWaitS || s.MakespanS != p.MakespanS {
				add("%s sched_shmem: backend replay (jobs=%d cycles=%d steps=%d events=%d wait=%g makespan=%g) diverges from plain sched_replay_100k/%s (jobs=%d cycles=%d steps=%d events=%d wait=%g makespan=%g) — backend changed decisions",
					who, s.Jobs, s.Cycles, s.Steps, s.Events, s.MeanWaitS, s.MakespanS,
					p.Policy, p.Jobs, p.Cycles, p.Steps, p.Events, p.MeanWaitS, p.MakespanS)
			}
			if p.CycleMicros > 0 && s.CycleMicros > p.CycleMicros*tolerance {
				add("%s sched_shmem: us_per_cycle %.2f exceeds plain replay %.2f x %.1f — backend indirection is not free",
					who, s.CycleMicros, p.CycleMicros, tolerance)
			}
			if s.AllocsPerCycle > p.AllocsPerCycle*1.5+5 {
				add("%s sched_shmem: allocs_per_cycle %.1f exceeds plain replay %.1f — backend indirection allocates on the hot path",
					who, s.AllocsPerCycle, p.AllocsPerCycle)
			}
			return
		}
	}
	compareShmemOps := func(name string, b, c benchfmt.ShmemOpEntry) {
		if c.Ops != b.Ops {
			add("%s: ops %d, baseline %d", name, c.Ops, b.Ops)
		}
		if b.MicrosPerOp > 0 && c.MicrosPerOp > b.MicrosPerOp*tolerance {
			add("%s: us_per_op %.2f exceeds baseline %.2f x %.1f", name, c.MicrosPerOp, b.MicrosPerOp, tolerance)
		}
		warn(name, "us_per_op", b.MicrosPerOp, c.MicrosPerOp)
	}
	comparePolicies := func(section string, base, cand []replayEntry) {
		byName := map[string]replayEntry{}
		for _, e := range cand {
			byName[e.Policy] = e
		}
		for _, b := range base {
			c, ok := byName[b.Policy]
			if !ok {
				add("%s: policy %q missing from candidate", section, b.Policy)
				continue
			}
			compare(section+"/"+b.Policy, b, c)
		}
	}
	if base.Replay100k != nil && cand.Replay100k != nil {
		comparePolicies("sched_replay_100k", base.Replay100k.Policies, cand.Replay100k.Policies)
	}
	if base.Replay1M != nil && cand.Replay1M != nil {
		compare("sched_replay_1m/"+base.Replay1M.Replay.Policy, base.Replay1M.Replay, cand.Replay1M.Replay)
	}
	if base.Spillover != nil && cand.Spillover != nil {
		comparePolicies("sched_spillover", base.Spillover.Policies, cand.Spillover.Policies)
	}
	if base.NodeFaults != nil && cand.NodeFaults != nil {
		comparePolicies("sched_nodefaults", base.NodeFaults.Policies, cand.NodeFaults.Policies)
	}
	if base.Obs != nil && cand.Obs != nil {
		compareObs("sched_obs/"+base.Obs.Probed.Policy, base.Obs.Probed, cand.Obs.Probed)
	}
	if base.SchedD != nil && cand.SchedD != nil {
		compareSchedD("sched_schedd/"+base.SchedD.WhatIf.Policy, base.SchedD.WhatIf, cand.SchedD.WhatIf)
	}
	if base.Shmem != nil && cand.Shmem != nil {
		compare("sched_shmem/"+base.Shmem.Replay.Policy, base.Shmem.Replay, cand.Shmem.Replay)
		byBackend := map[string]benchfmt.ShmemOpEntry{}
		for _, e := range cand.Shmem.Backends {
			byBackend[e.Backend] = e
		}
		for _, be := range base.Shmem.Backends {
			ce, ok := byBackend[be.Backend]
			if !ok {
				add("sched_shmem: backend %q missing from candidate", be.Backend)
				continue
			}
			compareShmemOps("sched_shmem/ops/"+be.Backend, be, ce)
		}
	}
	crossCheckObs("baseline", base)
	crossCheckObs("candidate", cand)
	crossCheckShmem("baseline", base)
	crossCheckShmem("candidate", cand)
	return findings, warnings, nil
}

func main() {
	tolerance := flag.Float64("tolerance", 3.0, "allowed us_per_cycle slowdown factor vs baseline")
	warnPct := flag.Float64("warn-pct", 0, "warn (exit 0) when wall_seconds/us_per_cycle deviate more than this percentage either way; 0 disables")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tolerance F] [-warn-pct P] baseline.json candidate.json")
		os.Exit(2)
	}
	baseline, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	candidate, err := os.ReadFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	findings, warnings, err := diff(baseline, candidate, *tolerance, *warnPct)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	for _, w := range warnings {
		fmt.Fprintf(os.Stderr, "benchdiff: warning: %s\n", w)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) vs %s:\n", len(findings), flag.Arg(0))
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %s matches %s (tolerance %.1fx)\n", flag.Arg(1), flag.Arg(0), *tolerance)
}
