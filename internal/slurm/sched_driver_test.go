package slurm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/sched"
)

// schedController builds a DROM cluster with a sched policy installed.
// settle drains the events of the current instant — submissions
// coalesce into one policy cycle that runs at the same virtual time,
// so tests settle before asserting on queue/running state.
func schedController(policy sched.Policy) (ctl *Controller, settle func(), run func() float64) {
	eng, c := newTestCluster()
	ctl = NewController(c, PolicyDROM)
	ctl.UseSched(policy)
	ctl.DebugInvariants = true
	return ctl, func() { eng.RunUntil(eng.Now()) }, func() float64 { eng.Run(); return eng.Now() }
}

// nodeJob is a 1-node job of the given width and length.
func nodeJob(name string, iters, threads int, walltime float64) *Job {
	return &Job{Name: name, Spec: fastSpec(iters), Cfg: apps.Config{Ranks: 1, Threads: threads},
		Nodes: 1, Walltime: walltime, Malleable: true}
}

// TestSchedFCFSMatchesLegacySerialOrder: the extracted FCFS policy
// preserves head-of-line blocking.
func TestSchedFCFSMatchesLegacySerialOrder(t *testing.T) {
	ctl, settle, run := schedController(&sched.FCFS{})
	submit(t, ctl, nodeJob("a", 100, 16, 0))
	submit(t, ctl, &Job{Name: "wide", Spec: fastSpec(50), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Walltime: 0, Malleable: true})
	submit(t, ctl, nodeJob("c", 10, 4, 0))
	settle()
	if ctl.RunningLen() != 1 || ctl.QueueLen() != 2 {
		t.Fatalf("running=%d queue=%d, want FCFS blocking", ctl.RunningLen(), ctl.QueueLen())
	}
	run()
	checkErr(t, ctl)
	rw, _ := ctl.Records.Job("wide")
	rc, _ := ctl.Records.Job("c")
	if rc.Start < rw.Start {
		t.Errorf("c started (%v) before the blocked head wide (%v)", rc.Start, rw.Start)
	}
}

// TestSchedEASYBackfills: a short narrow job jumps a blocked wide head
// without delaying it.
func TestSchedEASYBackfills(t *testing.T) {
	ctl, settle, run := schedController(&sched.EASY{})
	submit(t, ctl, nodeJob("long", 200, 16, 300))
	submit(t, ctl, &Job{Name: "wide", Spec: fastSpec(100), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Walltime: 200, Malleable: true})
	submit(t, ctl, nodeJob("short", 20, 16, 50))
	settle()
	// short fits on the free node and ends well before long's estimate:
	// it backfills.
	if ctl.RunningLen() != 2 {
		t.Fatalf("running=%d, want long+short", ctl.RunningLen())
	}
	run()
	checkErr(t, ctl)
	rs, _ := ctl.Records.Job("short")
	rw, _ := ctl.Records.Job("wide")
	if rs.Start >= rw.Start {
		t.Errorf("short (%v) should have backfilled before wide (%v)", rs.Start, rw.Start)
	}
}

// TestSchedEASYNoStarvation is the regression for the naive-backfill
// gap: a stream of jobs long enough to outlive the head's reservation
// must NOT keep jumping the wide head.
func TestSchedEASYNoStarvation(t *testing.T) {
	ctl, settle, run := schedController(&sched.EASY{})
	submit(t, ctl, nodeJob("running", 100, 16, 120))
	submit(t, ctl, &Job{Name: "wide", Spec: fastSpec(50), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Walltime: 100, Malleable: true})
	// Each greedy job would fit the free node right now but runs way
	// past the shadow time (~120): EASY must hold them all back.
	for i := 0; i < 4; i++ {
		submit(t, ctl, nodeJob("greedy", 500, 16, 800))
	}
	settle()
	if ctl.RunningLen() != 1 {
		t.Fatalf("running=%d: greedy jobs starved the wide head", ctl.RunningLen())
	}
	run()
	checkErr(t, ctl)
	rw, _ := ctl.Records.Job("wide")
	rr, _ := ctl.Records.Job("running")
	if rw.Start > rr.End+2 {
		t.Errorf("wide started %v, want right after running ends (%v)", rw.Start, rr.End)
	}
}

// TestSchedShrinkExpandRoundTrip: the malleable policy shrinks a
// running job through the real DROM path to admit a second one, and
// expands it back to its original masks once the intruder finishes.
func TestSchedShrinkExpandRoundTrip(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	ctl.UseSched(&sched.Malleable{Expand: true})

	long := &Job{Name: "long", Spec: fastSpec(600), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Walltime: 700, Malleable: true}
	short := &Job{Name: "short", Spec: fastSpec(30), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Walltime: 60, Malleable: true}
	submit(t, ctl, long)
	eng.RunUntil(20)

	// Record long's original masks (full nodes).
	original := map[string]int{}
	for _, node := range c.Nodes {
		for _, e := range c.System(node).Segment().Snapshot() {
			original[node] += e.CurrentMask.Count()
		}
	}
	if original["node0"] != 16 || original["node1"] != 16 {
		t.Fatalf("long should own both full nodes: %v", original)
	}

	submit(t, ctl, short) // admission requires shrinking long to 8/8
	eng.RunUntil(eng.Now())
	if ctl.RunningLen() != 2 {
		t.Fatalf("running=%d, want shrink-admission of short", ctl.RunningLen())
	}
	eng.RunUntil(30) // both polled: shrink applied, short registered
	for _, node := range c.Nodes {
		for _, e := range c.System(node).Segment().Snapshot() {
			if e.CurrentMask.Count() != 8 {
				t.Fatalf("node %s entry mask=%v, want 8/8 equipartition", node, e.CurrentMask)
			}
		}
	}

	// Wait for short to finish; the expand action restores long.
	eng.RunUntil(200)
	if ctl.RunningLen() != 1 {
		t.Fatalf("running=%d, want only long", ctl.RunningLen())
	}
	for _, node := range c.Nodes {
		got := 0
		entries := c.System(node).Segment().Snapshot()
		if len(entries) != 1 {
			t.Fatalf("node %s has %d entries after short ended", node, len(entries))
		}
		got = entries[0].CurrentMask.Count()
		if e := entries[0]; e.Dirty {
			got = e.FutureMask.Count()
		}
		if got != original[node] {
			t.Errorf("node %s: long holds %d CPUs, want restored %d", node, got, original[node])
		}
	}
	eng.Run()
	checkErr(t, ctl)

	// All malleability flowed through the DROM protocol: the records
	// must show both jobs completing with sane times.
	rl, okl := ctl.Records.Job("long")
	rs, oks := ctl.Records.Job("short")
	if !okl || !oks {
		t.Fatal("missing records")
	}
	if rs.WaitTime() > 2 {
		t.Errorf("short waited %v, want immediate shrink-admission", rs.WaitTime())
	}
	if rl.End <= rs.End {
		t.Errorf("long (%v) should outlive short (%v)", rl.End, rs.End)
	}
}

// TestSchedMalleableShrinkDoesNotExpand: without the expand phase the
// shrunken job keeps its reduced masks after the intruder ends.
func TestSchedMalleableShrinkDoesNotExpand(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	ctl.UseSched(&sched.Malleable{})
	long := &Job{Name: "long", Spec: fastSpec(600), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Walltime: 700, Malleable: true}
	short := &Job{Name: "short", Spec: fastSpec(30), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Walltime: 60, Malleable: true}
	submit(t, ctl, long)
	eng.RunUntil(20)
	submit(t, ctl, short)
	eng.RunUntil(300) // short long gone
	if ctl.RunningLen() != 1 {
		t.Fatalf("running=%d", ctl.RunningLen())
	}
	for _, node := range c.Nodes {
		for _, e := range c.System(node).Segment().Snapshot() {
			got := e.CurrentMask.Count()
			if e.Dirty {
				got = e.FutureMask.Count()
			}
			if got != 8 {
				t.Errorf("node %s: mask=%d, want shrunken 8 (no expand phase)", node, got)
			}
		}
	}
	eng.Run()
	checkErr(t, ctl)
}

// rearmStubPolicy forces the skipped-action race: while the long job
// is still wide it pairs a shrink with a start the executor must
// reject (the freed capacity is below the start's demand), then — on
// the re-armed follow-up cycle, where the shrink is already staged —
// admits the queued head at the width that actually fits.
type rearmStubPolicy struct{}

func (rearmStubPolicy) Name() string { return "rearm-stub" }

func (p rearmStubPolicy) ClonePolicy() sched.Policy { return p }

func (rearmStubPolicy) Schedule(s *sched.State) []sched.Action {
	if len(s.Queue) == 0 {
		return nil
	}
	head := s.Queue[0]
	for _, r := range s.Running {
		if r.CPUsPerNode > 8 {
			// Shrink executes; the paired start is over-subscribed on
			// purpose (16 > the 8 CPUs the shrink frees) and is skipped.
			return []sched.Action{
				{Kind: sched.ActShrink, ID: r.ID, TargetCPUsPerNode: 8},
				{Kind: sched.ActStart, ID: head.ID, TargetCPUsPerNode: 16, Nodes: []int{0}},
			}
		}
	}
	return []sched.Action{
		{Kind: sched.ActStart, ID: head.ID, TargetCPUsPerNode: 8, Nodes: []int{0}},
	}
}

// TestSkippedActionRearmsCycle is the regression for the freed-CPUs-
// idle bug: when schedCycle skips an ActStart whose paired ActShrink
// already executed, a follow-up cycle at the same timestamp must let
// the head start immediately instead of waiting for the next job end.
func TestSkippedActionRearmsCycle(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	ctl.UseSched(rearmStubPolicy{})
	ctl.DebugInvariants = true
	long := &Job{Name: "long", Spec: fastSpec(600), Cfg: apps.Config{Ranks: 1, Threads: 16},
		Nodes: 1, Walltime: 700, Malleable: true}
	submit(t, ctl, long)
	eng.RunUntil(20)
	short := &Job{Name: "short", Spec: fastSpec(30), Cfg: apps.Config{Ranks: 1, Threads: 8},
		Nodes: 1, Walltime: 60, Malleable: true}
	submit(t, ctl, short)
	eng.RunUntil(eng.Now()) // settle the re-armed cycle at t=20
	if ctl.RunningLen() != 2 {
		t.Fatalf("running=%d, want the shrunk-for head admitted at the same instant", ctl.RunningLen())
	}
	eng.Run()
	checkErr(t, ctl)
	rs, ok := ctl.Records.Job("short")
	if !ok {
		t.Fatal("short never ran")
	}
	if rs.Start != 20 {
		t.Errorf("short started at %v, want 20 (no wait for a job end)", rs.Start)
	}
}

// unsatisfiableStubPolicy always demands a start the executor must
// reject; the re-arm guard must fire at most once per timestamp so the
// simulation terminates.
type unsatisfiableStubPolicy struct{ cycles *int }

func (unsatisfiableStubPolicy) Name() string { return "unsatisfiable-stub" }

func (p unsatisfiableStubPolicy) ClonePolicy() sched.Policy { return p }

func (p unsatisfiableStubPolicy) Schedule(s *sched.State) []sched.Action {
	*p.cycles++
	if len(s.Queue) == 0 {
		return nil
	}
	return []sched.Action{
		{Kind: sched.ActStart, ID: s.Queue[0].ID, TargetCPUsPerNode: 16, Nodes: []int{0, 0}},
	}
}

// TestRearmBoundedPerTimestamp: a plan the executor keeps rejecting
// must not re-arm itself forever within one instant.
func TestRearmBoundedPerTimestamp(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	cycles := 0
	ctl.UseSched(unsatisfiableStubPolicy{&cycles})
	ctl.DebugInvariants = true
	submit(t, ctl, &Job{Name: "wide", Spec: fastSpec(10), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Walltime: 60, Malleable: true})
	eng.Run() // must drain, not loop
	if ctl.QueueLen() != 1 {
		t.Fatalf("queue=%d, want the rejected job still waiting", ctl.QueueLen())
	}
	if cycles > 2 {
		t.Errorf("policy ran %d cycles at one instant, want at most 2 (initial + one re-arm)", cycles)
	}
	checkErr(t, ctl)
}

// dupNodesStubPolicy pins a 2-node start onto the same node index
// twice — the malicious-policy input the executor must reject instead
// of silently collapsing the plans map onto a single node.
type dupNodesStubPolicy struct{}

func (dupNodesStubPolicy) Name() string { return "dup-nodes-stub" }

func (p dupNodesStubPolicy) ClonePolicy() sched.Policy { return p }

func (dupNodesStubPolicy) Schedule(s *sched.State) []sched.Action {
	if len(s.Queue) == 0 {
		return nil
	}
	return []sched.Action{
		{Kind: sched.ActStart, ID: s.Queue[0].ID, Nodes: []int{1, 1}},
	}
}

// TestStartRejectsDuplicatePinnedNodes: a duplicated pinned index
// passes the len(cands) == j.Nodes width check, so startQueued must
// validate uniqueness explicitly.
func TestStartRejectsDuplicatePinnedNodes(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	ctl.UseSched(dupNodesStubPolicy{})
	ctl.DebugInvariants = true
	submit(t, ctl, &Job{Name: "two-node", Spec: fastSpec(10), Cfg: apps.Config{Ranks: 2, Threads: 8},
		Nodes: 2, Walltime: 60, Malleable: true})
	eng.Run()
	checkErr(t, ctl)
	if ctl.RunningLen() != 0 || ctl.QueueLen() != 1 {
		t.Fatalf("running=%d queue=%d, want the duplicate-pinned start rejected",
			ctl.RunningLen(), ctl.QueueLen())
	}
	if _, started := ctl.Records.Job("two-node"); started {
		t.Error("two-node has a record; the collapsed launch must not happen")
	}
}

// TestCancelDuringLaunchLatency: scancel inside the srun latency
// window (job launched, ranks not yet registered) must not spawn a
// ghost execution when the deferred Start event fires — the ghost
// would hold CPUs the incremental free accounting believes are free
// and add a duplicate job record on its completion.
func TestCancelDuringLaunchLatency(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	ctl.UseSched(&sched.FCFS{})
	ctl.DebugInvariants = true
	submit(t, ctl, nodeJob("doomed", 50, 16, 100))
	eng.RunUntil(eng.Now()) // policy cycle ran; DLB_Init still pending
	if ctl.RunningLen() != 1 {
		t.Fatalf("running=%d, want the launch in flight", ctl.RunningLen())
	}
	if !ctl.Cancel("doomed") {
		t.Fatal("Cancel failed")
	}
	submit(t, ctl, nodeJob("next", 10, 16, 50))
	eng.Run()
	checkErr(t, ctl)
	records := 0
	for _, j := range ctl.Records.Jobs {
		if j.Name == "doomed" {
			records++
		}
	}
	if records != 1 {
		t.Errorf("doomed has %d records, want exactly 1", records)
	}
	rn, ok := ctl.Records.Job("next")
	if !ok || rn.Start != 0 {
		t.Errorf("next start=%v ok=%v, want immediate start on the freed node", rn.Start, ok)
	}
	for _, node := range c.Nodes {
		if n := len(c.System(node).Segment().Snapshot()); n != 0 {
			t.Errorf("node %s still has %d shared-memory entries (ghost execution?)", node, n)
		}
	}
}
