package slurm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// faultController builds a 2-node sched-driven cluster with a fault
// plan installed and invariant checking on.
func faultController(t *testing.T, fp FaultPlan) (ctl *Controller, run func() float64) {
	t.Helper()
	eng, c := newTestCluster()
	ctl = NewController(c, PolicyDROM)
	ctl.UseSched(&sched.FCFS{})
	ctl.DebugInvariants = true
	if err := ctl.InstallFaults(fp); err != nil {
		t.Fatal(err)
	}
	return ctl, func() float64 { eng.Run(); return eng.Now() }
}

// tallyOf reads a workload's outcome and fault counters.
func tallyOf(w metrics.Workload) metrics.SchedStats { return metrics.NewSchedStats(w, nil, 0) }

// wideJob is a 2-node full-width job: resident on every node, so a
// fault on either one hits it.
func wideJob(name string, iters int, walltime float64) *Job {
	return &Job{Name: name, Spec: fastSpec(iters), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Walltime: walltime, Malleable: true}
}

// TestParseFaultScriptErrors: every malformed script entry is rejected
// at install time, before any event is scheduled.
func TestParseFaultScriptErrors(t *testing.T) {
	for _, script := range []string{
		"node0down@1..2",        // no kind separator
		"node9:down@1..2",       // unknown node
		"node0:reboot@1..2",     // unknown kind
		"node0:down@1",          // no time span
		"node0:down@x..2",       // bad start
		"node0:down@1..y",       // bad end
		"node0:down@-1..2",      // negative start
		"node0:down@5..5",       // empty window
		"node0:down@5..2",       // inverted window
		"node0:down@1..+Inf",    // unbounded window
		"node0:down@1..2+bogus", // trailing junk entry
	} {
		eng, c := newTestCluster()
		_ = eng
		ctl := NewController(c, PolicyDROM)
		if err := ctl.InstallFaults(FaultPlan{Script: script}); err == nil {
			t.Errorf("script %q: want parse error", script)
		}
	}
	// A disabled plan is a free no-op; a second install is rejected.
	_, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	if err := ctl.InstallFaults(FaultPlan{}); err != nil {
		t.Fatalf("empty plan: %v", err)
	}
	if ctl.nfState != nil {
		t.Error("empty plan left the fault model enabled")
	}
	if err := ctl.InstallFaults(FaultPlan{Script: "node0:down@1..2"}); err != nil {
		t.Fatal(err)
	}
	if ctl.nfState == nil {
		t.Error("fault model not enabled after install")
	}
	if err := ctl.InstallFaults(FaultPlan{Script: "node1:down@1..2"}); err == nil {
		t.Error("double install: want error")
	}
}

// TestNodeDownKillsAndRequeues: a scripted outage kills the resident
// job, requeues it with the deterministic backoff, and the job
// restarts when the repair returns capacity — with its original submit
// time intact, so wait/slowdown span the whole lifecycle.
func TestNodeDownKillsAndRequeues(t *testing.T) {
	ctl, run := faultController(t, FaultPlan{Script: "node0:down@50..200"})
	submit(t, ctl, wideJob("victim", 300, 400))
	run()
	checkErr(t, ctl)
	r, ok := ctl.Records.Job("victim")
	if !ok {
		t.Fatal("victim has no record")
	}
	if r.Outcome != metrics.OutcomeCompleted {
		t.Fatalf("outcome = %v, want completed after the requeue", r.Outcome)
	}
	if r.Submit != 0 {
		t.Errorf("submit = %v, want the original 0 preserved across the requeue", r.Submit)
	}
	// Killed at 50, re-enqueued at 80 (backoff 30·2⁰, no jitter without
	// a seeded RNG), but the 2-node shape fits only after the repair.
	if r.Start != 200 {
		t.Errorf("start = %v, want 200 (the repair instant)", r.Start)
	}
	if got := tallyOf(ctl.Records).Requeues; got != 1 {
		t.Errorf("requeues = %d, want 1", got)
	}
	if got := tallyOf(ctl.Records).LostWorkS; got != 50 {
		t.Errorf("lost work = %v, want the 50s of progress destroyed by the kill", got)
	}
	if got := tallyOf(ctl.Records).DownNodeS; got != 150 {
		t.Errorf("down node-seconds = %v, want 150", got)
	}
	if got := tallyOf(ctl.Records).NodeFailed; got != 0 {
		t.Errorf("node-failed jobs = %d, want 0", got)
	}
}

// TestRequeueCapRecordsNodeFailed: the job is requeued up to the cap;
// the next kill is terminal and records OutcomeNodeFailed.
func TestRequeueCapRecordsNodeFailed(t *testing.T) {
	ctl, run := faultController(t, FaultPlan{
		Script:      "node0:down@50..60+node0:down@100..110",
		MaxRequeues: 1,
	})
	submit(t, ctl, wideJob("victim", 300, 400))
	run()
	checkErr(t, ctl)
	r, ok := ctl.Records.Job("victim")
	if !ok {
		t.Fatal("victim has no record")
	}
	if r.Outcome != metrics.OutcomeNodeFailed {
		t.Fatalf("outcome = %v, want node-failed past the requeue cap", r.Outcome)
	}
	if r.Submit != 0 {
		t.Errorf("submit = %v, want the original 0 preserved", r.Submit)
	}
	if r.End != 100 {
		t.Errorf("end = %v, want the second kill at 100", r.End)
	}
	if got := tallyOf(ctl.Records).Requeues; got != 1 {
		t.Errorf("requeues = %d, want exactly the cap", got)
	}
	if got := tallyOf(ctl.Records).NodeFailed; got != 1 {
		t.Errorf("node-failed jobs = %d, want 1", got)
	}
}

// TestNoRequeuesMakesFirstFailureTerminal: a negative cap disables
// requeueing entirely.
func TestNoRequeuesMakesFirstFailureTerminal(t *testing.T) {
	ctl, run := faultController(t, FaultPlan{Script: "node0:down@50..100", MaxRequeues: -1})
	submit(t, ctl, wideJob("victim", 300, 400))
	run()
	checkErr(t, ctl)
	r, _ := ctl.Records.Job("victim")
	if r.Outcome != metrics.OutcomeNodeFailed || r.End != 50 {
		t.Fatalf("record = %+v, want node-failed at the kill instant", r)
	}
	if got := tallyOf(ctl.Records).Requeues; got != 0 {
		t.Errorf("requeues = %d, want none", got)
	}
}

// TestDrainBlocksLaunchesWhileResidentsFinish: a draining node keeps
// its resident job to completion but accepts no new launches until the
// window closes; drains book no downtime (degraded, not down).
func TestDrainBlocksLaunchesWhileResidentsFinish(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	ctl.UseSched(&sched.FCFS{})
	ctl.DebugInvariants = true
	if err := ctl.InstallFaults(FaultPlan{Script: "node0:drain@10..100+node1:drain@10..100"}); err != nil {
		t.Fatal(err)
	}
	submit(t, ctl, nodeJob("resident", 50, 16, 100))
	eng.RunUntil(20) // inside the drain window
	submit(t, ctl, nodeJob("late", 20, 16, 50))
	eng.Run()
	checkErr(t, ctl)
	rr, _ := ctl.Records.Job("resident")
	rl, _ := ctl.Records.Job("late")
	if rr.Outcome != metrics.OutcomeCompleted || rr.End >= 100 {
		t.Errorf("resident record %+v: a drain must let residents finish in place", rr)
	}
	if rl.Start != 100 {
		t.Errorf("late start = %v, want the drain-end instant 100", rl.Start)
	}
	st := tallyOf(ctl.Records)
	if st.Requeues != 0 || st.NodeFailed != 0 {
		t.Errorf("drain killed jobs: requeues=%d node_failed=%d",
			st.Requeues, st.NodeFailed)
	}
	if st.DownNodeS != 0 {
		t.Errorf("down node-seconds = %v, want 0 for a drain", st.DownNodeS)
	}
}

// TestNodeDownDuringLaunchLatency: a node failing inside the srun
// latency window (job launched, ranks not yet registered) must clean
// the PreInit-only shared-memory reservations and leave no ghost
// execution behind when the deferred start fires.
func TestNodeDownDuringLaunchLatency(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	ctl.UseSched(&sched.FCFS{})
	ctl.DebugInvariants = true
	// from=0 would race the synchronous submit below; the smallest
	// positive time still lands inside the launch-latency window.
	if err := ctl.InstallFaults(FaultPlan{Script: "node0:down@0.1..100"}); err != nil {
		t.Fatal(err)
	}
	submit(t, ctl, wideJob("doomed", 30, 100))
	eng.Run()
	checkErr(t, ctl)
	records := 0
	for _, j := range ctl.Records.Jobs {
		if j.Name == "doomed" {
			records++
		}
	}
	if records != 1 {
		t.Fatalf("doomed has %d records, want exactly 1", records)
	}
	r, _ := ctl.Records.Job("doomed")
	if r.Outcome != metrics.OutcomeCompleted || r.Start != 100 {
		t.Errorf("record %+v, want a clean restart at the repair", r)
	}
	for _, node := range c.Nodes {
		if n := len(c.System(node).Segment().Snapshot()); n != 0 {
			t.Errorf("node %s still has %d shared-memory entries (ghost execution?)", node, n)
		}
	}
}

// TestSeededFaultsDeterministic: two runs of the same seeded MTBF plan
// over the same workload produce byte-identical job records and fault
// tallies, and the plan actually injects something (non-vacuous).
func TestSeededFaultsDeterministic(t *testing.T) {
	replay := func() (string, *Controller) {
		eng, c := newTestCluster()
		ctl := NewController(c, PolicyDROM)
		ctl.UseSched(&sched.EASY{})
		ctl.DebugInvariants = true
		if err := ctl.InstallFaults(FaultPlan{MTBF: 120, MTTR: 40, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			submit(t, ctl, nodeJob(fmt.Sprintf("j%d", i), 80, 16, 200))
		}
		eng.Run()
		checkErr(t, ctl)
		var sb strings.Builder
		for _, j := range ctl.Records.Jobs {
			fmt.Fprintf(&sb, "%s %g %g %g %s\n", j.Name, j.Submit, j.Start, j.End, j.Outcome)
		}
		st := tallyOf(ctl.Records)
		fmt.Fprintf(&sb, "requeues=%d node_failed=%d lost=%g down=%g\n",
			st.Requeues, st.NodeFailed, st.LostWorkS, st.DownNodeS)
		return sb.String(), ctl
	}
	a, ctl := replay()
	b, _ := replay()
	if a != b {
		t.Errorf("seeded fault replays diverged:\n%s\nvs\n%s", a, b)
	}
	if st := tallyOf(ctl.Records); st.Requeues == 0 && st.DownNodeS == 0 {
		t.Errorf("seeded plan injected nothing; the determinism check is vacuous:\n%s", a)
	}
}

// TestPreemptRequeueKeepsSubmitTime pins the wait-time accounting of
// the preempt-requeue path: a checkpointed and resumed job's record
// must keep its original submit (and first-start) times, so wait and
// slowdown span the whole lifecycle rather than restarting at the
// requeue.
func TestPreemptRequeueKeepsSubmitTime(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyPreempt)
	low := &Job{Name: "low", Spec: fastSpec(600), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Priority: 0, Malleable: true}
	high := &Job{Name: "high", Spec: fastSpec(100), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Priority: 10, Malleable: true}
	submit(t, ctl, low)
	eng.RunUntil(200)
	submit(t, ctl, high)
	eng.Run()
	checkErr(t, ctl)
	rl, ok := ctl.Records.Job("low")
	if !ok {
		t.Fatal("low has no record")
	}
	if rl.Submit != 0 {
		t.Errorf("low submit = %v after preempt-requeue, want the original 0", rl.Submit)
	}
	if rl.Start != 0 {
		t.Errorf("low start = %v, want the first launch at 0 (progress is checkpointed, not lost)", rl.Start)
	}
	if rl.WaitTime() != 0 {
		t.Errorf("low wait = %v, want 0 from the preserved timestamps", rl.WaitTime())
	}
}
