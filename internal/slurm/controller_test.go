package slurm

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fastSpec is a small compute app for quick controller tests.
func fastSpec(iters int) apps.Spec {
	s := apps.Pils()
	s.DefaultIters = iters
	s.CommSeconds = 0
	return s
}

// mn3Cluster builds n MN3 nodes in the default partition.
func mn3Cluster(eng *sim.Engine, n int) *Cluster {
	c, err := NewClusterSpecReg(eng, hwmodel.Homogeneous(DefaultPartition, hwmodel.MN3(), n), nil, nil)
	if err != nil {
		panic(err) // a positive node count cannot produce an invalid spec
	}
	return c
}

// TestNodeNameRank: the cluster's name ranks order its nodes exactly
// as sort.Strings orders their names — across the digit-count
// boundaries where index order and name order part (node9/node10/
// node100) — and a fork shares the ranks instead of recomputing them.
func TestNodeNameRank(t *testing.T) {
	for _, n := range []int{1, 9, 10, 11, 99, 100, 101, 1000, 1001} {
		c := mn3Cluster(sim.NewEngine(), n)
		want := make([]string, n)
		for i := range want {
			want[i] = fmt.Sprintf("node%d", i)
		}
		if !slices.Equal(c.Nodes, want) {
			t.Fatalf("n=%d: node names %v", n, c.Nodes)
		}
		sort.Strings(want)
		byRank := make([]string, n)
		for i, name := range c.Nodes {
			byRank[c.nameRank[i]] = name
		}
		if !slices.Equal(byRank, want) {
			t.Fatalf("n=%d: rank order %v, sort.Strings %v", n, byRank, want)
		}
		if f := c.Fork(sim.NewEngine()); &f.nameRank[0] != &c.nameRank[0] {
			t.Errorf("n=%d: the fork recomputed the name ranks", n)
		}
	}
}

// TestPlacementInNameOrder: a job spanning a 12-node cluster — where
// node10 and node11 sort between node1 and node2 — lists its nodes in
// name order, through the builtin planner and through a policy start
// alike.
func TestPlacementInNameOrder(t *testing.T) {
	for _, withSched := range []bool{false, true} {
		eng := sim.NewEngine()
		ctl := NewController(mn3Cluster(eng, 12), PolicyDROM)
		if withSched {
			ctl.UseSched(&sched.EASY{})
		}
		submit(t, ctl, &Job{Name: "wide", Spec: fastSpec(10), Cfg: apps.Config{Ranks: 12, Threads: 16},
			Nodes: 12, Walltime: 100, Malleable: true})
		if ctl.RunningLen() != 1 {
			t.Fatalf("sched=%v: the wide job did not start", withSched)
		}
		var got []string
		for _, ni := range ctl.views[0].rjobs[0].nodeAt {
			got = append(got, ctl.cluster.Nodes[ni])
		}
		want := slices.Clone(ctl.cluster.Nodes)
		sort.Strings(want)
		if !slices.Equal(got, want) {
			t.Errorf("sched=%v: placement %v, want name order %v", withSched, got, want)
		}
		eng.Run()
		checkErr(t, ctl)
	}
}

func newTestCluster() (*sim.Engine, *Cluster) {
	eng := sim.NewEngine()
	return eng, mn3Cluster(eng, 2)
}

func submit(t *testing.T, ctl *Controller, j *Job) {
	t.Helper()
	if err := ctl.Submit(j); err != nil {
		t.Fatal(err)
	}
}

func checkErr(t *testing.T, ctl *Controller) {
	t.Helper()
	if ctl.Err != nil {
		t.Fatalf("controller error: %v", ctl.Err)
	}
}

func TestValidateRejectsBadJobs(t *testing.T) {
	_, c := newTestCluster()
	bad := []*Job{
		{Name: "no-nodes", Spec: fastSpec(1), Cfg: apps.Config{Ranks: 2, Threads: 1}, Nodes: 0},
		{Name: "too-many-nodes", Spec: fastSpec(1), Cfg: apps.Config{Ranks: 2, Threads: 1}, Nodes: 5},
		{Name: "indivisible", Spec: fastSpec(1), Cfg: apps.Config{Ranks: 3, Threads: 1}, Nodes: 2},
		{Name: "too-wide", Spec: fastSpec(1), Cfg: apps.Config{Ranks: 2, Threads: 17}, Nodes: 2},
	}
	for _, j := range bad {
		if err := j.Validate(c); err == nil {
			t.Errorf("job %s should be invalid", j.Name)
		}
	}
}

func TestSerialPolicyQueuesSecondJob(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicySerial)
	j1 := &Job{Name: "j1", Spec: fastSpec(100), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	j2 := &Job{Name: "j2", Spec: fastSpec(10), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	submit(t, ctl, j1)
	submit(t, ctl, j2)
	if ctl.QueueLen() != 1 || ctl.RunningLen() != 1 {
		t.Fatalf("queue=%d running=%d", ctl.QueueLen(), ctl.RunningLen())
	}
	eng.Run()
	checkErr(t, ctl)
	r1, _ := ctl.Records.Job("j1")
	r2, _ := ctl.Records.Job("j2")
	if r2.Start < r1.End {
		t.Errorf("serial: j2 started (%v) before j1 ended (%v)", r2.Start, r1.End)
	}
	if r2.WaitTime() <= 0 {
		t.Error("j2 should have waited")
	}
}

func TestDROMPolicyCoAllocates(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	j1 := &Job{Name: "j1", Spec: fastSpec(200), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	j2 := &Job{Name: "j2", Spec: fastSpec(10), Cfg: apps.Config{Ranks: 2, Threads: 1}, Nodes: 2, Malleable: true}
	submit(t, ctl, j1)
	eng.RunUntil(20)
	submit(t, ctl, j2)
	if ctl.QueueLen() != 0 || ctl.RunningLen() != 2 {
		t.Fatalf("queue=%d running=%d, want co-allocation", ctl.QueueLen(), ctl.RunningLen())
	}
	eng.Run()
	checkErr(t, ctl)
	r2, _ := ctl.Records.Job("j2")
	if r2.WaitTime() > 1e-9 {
		t.Errorf("co-allocated job waited %v", r2.WaitTime())
	}
}

func TestDROMMasksStayDisjoint(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	j1 := &Job{Name: "sim", Spec: fastSpec(500), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	j2 := &Job{Name: "ana", Spec: fastSpec(50), Cfg: apps.Config{Ranks: 2, Threads: 4}, Nodes: 2, Malleable: true}
	submit(t, ctl, j1)
	eng.RunUntil(50)
	submit(t, ctl, j2)
	// Let both run a while, then check every node's masks.
	eng.RunUntil(100)
	checkErr(t, ctl)
	for _, node := range c.Nodes {
		seg := c.System(node).Segment()
		entries := seg.Snapshot()
		if len(entries) != 2 {
			t.Fatalf("%s has %d entries", node, len(entries))
		}
		if entries[0].CurrentMask.Intersects(entries[1].CurrentMask) {
			t.Errorf("%s masks overlap: %v / %v", node,
				entries[0].CurrentMask, entries[1].CurrentMask)
		}
	}
	eng.Run()
	checkErr(t, ctl)
}

// TestFigure2Protocol traces the full §5 launch/termination sequence:
// shrink staged at launch, applied at the victim's next poll, stolen
// CPUs returned at post_term, expansion at release_resources.
func TestFigure2Protocol(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	sim1 := &Job{Name: "job1", Spec: fastSpec(1000), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	submit(t, ctl, sim1)
	eng.RunUntil(100)

	// (1) launch_request + (2) pre_launch for job2.
	job2 := &Job{Name: "job2", Spec: fastSpec(20), Cfg: apps.Config{Ranks: 2, Threads: 8}, Nodes: 2, Malleable: true}
	submit(t, ctl, job2)
	seg := c.System("node0").Segment()
	// Immediately after submit, job1's entry must be dirty (staged
	// shrink) and job2's reserved entry present.
	entries := seg.Snapshot()
	if len(entries) != 2 {
		t.Fatalf("entries after launch = %d", len(entries))
	}
	var sawDirtyVictim, sawPreInit bool
	for _, e := range entries {
		if e.Dirty && e.FutureMask.Count() == 8 {
			sawDirtyVictim = true
		}
		if e.PreInit {
			sawPreInit = true
		}
	}
	if !sawDirtyVictim || !sawPreInit {
		t.Fatalf("launch protocol state wrong: dirty=%v preinit=%v", sawDirtyVictim, sawPreInit)
	}

	// (3) victim polls at its next iteration: masks settle disjoint.
	eng.RunUntil(eng.Now() + 10)
	entries = seg.Snapshot()
	for _, e := range entries {
		if e.Dirty {
			t.Errorf("entry %d still dirty after polls", e.PID)
		}
	}

	// (4)+(5) job2 finishes: job1 gets its CPUs back.
	eng.Run()
	checkErr(t, ctl)
	if ctl.RunningLen() != 0 {
		t.Fatal("jobs still running")
	}
	// During the post-completion window job1 should have re-expanded to
	// 16 CPUs per node before it finished; verify via its record times:
	// job1 must finish faster than a permanently-shrunk run would.
	r1, _ := ctl.Records.Job("job1")
	r2, _ := ctl.Records.Job("job2")
	if r2.End >= r1.End {
		t.Error("short job2 should end before job1")
	}
}

func TestPostFinalizeReturnsCPUsToVictim(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	long := &Job{Name: "long", Spec: fastSpec(1000), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	short := &Job{Name: "short", Spec: fastSpec(10), Cfg: apps.Config{Ranks: 2, Threads: 8}, Nodes: 2, Malleable: true}
	submit(t, ctl, long)
	eng.RunUntil(50)
	submit(t, ctl, short)
	eng.RunUntil(60) // both running, long shrunk to 8
	seg := c.System("node0").Segment()
	pids := seg.PIDList()
	if len(pids) != 2 {
		t.Fatalf("pids = %v", pids)
	}
	// Run past short's completion.
	eng.RunUntil(300)
	checkErr(t, ctl)
	entries := seg.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("entries after short end = %d", len(entries))
	}
	if entries[0].CurrentMask.Count() != 16 {
		t.Errorf("victim did not recover CPUs: %v", entries[0].CurrentMask)
	}
	eng.Run()
}

func TestPriorityOrdersQueue(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicySerial)
	blocker := &Job{Name: "blocker", Spec: fastSpec(50), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	low := &Job{Name: "low", Spec: fastSpec(10), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Priority: 0, Malleable: true}
	high := &Job{Name: "high", Spec: fastSpec(10), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Priority: 5, Malleable: true}
	submit(t, ctl, blocker)
	submit(t, ctl, low)
	submit(t, ctl, high)
	eng.Run()
	checkErr(t, ctl)
	rl, _ := ctl.Records.Job("low")
	rh, _ := ctl.Records.Job("high")
	if rh.Start >= rl.Start {
		t.Errorf("high priority started at %v, low at %v", rh.Start, rl.Start)
	}
}

func TestOversubscribePolicySharesCPUs(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyOversubscribe)
	j1 := &Job{Name: "j1", Spec: fastSpec(300), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	j2 := &Job{Name: "j2", Spec: fastSpec(300), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	submit(t, ctl, j1)
	eng.RunUntil(10)
	submit(t, ctl, j2)
	if ctl.RunningLen() != 2 {
		t.Fatal("oversubscribe should co-run immediately")
	}
	eng.RunUntil(20)
	// Node oversubscribed: 32 active threads on 16 cores.
	if got := c.Demand.Handle("node0").CPUShare(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("CPUShare = %v, want 0.5", got)
	}
	eng.Run()
	checkErr(t, ctl)
}

// TestDROMBeatsSerialAndOversubscribe is the headline sanity check:
// for a simulation+analytics workload, DROM beats Serial on total run
// time, and oversubscription is worse than DROM for the simulator.
func TestDROMBeatsBaselines(t *testing.T) {
	run := func(policy Policy) (total float64, simResp float64, anaResp float64) {
		eng, c := newTestCluster()
		ctl := NewController(c, policy)
		simJob := &Job{Name: "sim", Spec: fastSpec(800), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
		anaJob := &Job{Name: "ana", Spec: fastSpec(100), Cfg: apps.Config{Ranks: 2, Threads: 2}, Nodes: 2, Malleable: true}
		submit(t, ctl, simJob)
		eng.After(100, func() {
			if err := ctl.Submit(anaJob); err != nil {
				t.Error(err)
			}
		})
		eng.Run()
		checkErr(t, ctl)
		rs, _ := ctl.Records.Job("sim")
		ra, _ := ctl.Records.Job("ana")
		return ctl.Records.TotalRunTime(), rs.ResponseTime(), ra.ResponseTime()
	}
	serialTotal, _, serialAna := run(PolicySerial)
	dromTotal, _, dromAna := run(PolicyDROM)
	if dromTotal >= serialTotal {
		t.Errorf("DROM total %v >= serial %v", dromTotal, serialTotal)
	}
	if dromAna >= serialAna {
		t.Errorf("DROM analytics response %v >= serial %v", dromAna, serialAna)
	}
}
