package slurm

import (
	"testing"

	"repro/internal/apps"
)

// TestPreemptionFlow: a high-priority job checkpoints the running
// low-priority job, runs exclusively, and the victim resumes and
// completes afterwards.
func TestPreemptionFlow(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyPreempt)
	low := &Job{Name: "low", Spec: fastSpec(600), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Priority: 0, Malleable: true}
	high := &Job{Name: "high", Spec: fastSpec(100), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Priority: 10, Malleable: true}
	submit(t, ctl, low)
	eng.RunUntil(200)
	submit(t, ctl, high)

	// The victim is checkpointed immediately.
	if ctl.RunningLen() != 0 || ctl.QueueLen() != 2 {
		t.Fatalf("running=%d queue=%d right after preemption", ctl.RunningLen(), ctl.QueueLen())
	}
	// High-priority job cannot start before the checkpoint drains.
	eng.RunUntil(220)
	if ctl.RunningLen() != 0 {
		t.Fatal("launch during checkpoint drain")
	}
	eng.RunUntil(200 + checkpointCost + 20)
	if ctl.RunningLen() != 1 {
		t.Fatalf("high-priority job not launched after drain: running=%d", ctl.RunningLen())
	}

	eng.Run()
	checkErr(t, ctl)
	rl, okl := ctl.Records.Job("low")
	rh, okh := ctl.Records.Job("high")
	if !okl || !okh {
		t.Fatalf("records missing: %v/%v", okl, okh)
	}
	// High runs to completion before low resumes.
	if rh.End >= rl.End {
		t.Errorf("high ended at %v, low at %v", rh.End, rl.End)
	}
	// Low's response covers its suspension and both costs: it must
	// exceed its solo duration plus high's duration.
	if rl.ResponseTime() < 600+100 {
		t.Errorf("low response %v too small for a preempted job", rl.ResponseTime())
	}
	// High started promptly (wait ≈ checkpoint cost, not low's whole
	// remaining runtime).
	if rh.WaitTime() < checkpointCost-1 || rh.WaitTime() > checkpointCost+20 {
		t.Errorf("high wait = %v, want ~checkpoint cost %v", rh.WaitTime(), checkpointCost)
	}
}

// TestPreemptionWorkConserved: the victim's total computed iterations
// equal its job size despite the checkpoint.
func TestPreemptionWorkConserved(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyPreempt)
	low := &Job{Name: "low", Spec: fastSpec(300), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Priority: 0, Malleable: true}
	high := &Job{Name: "high", Spec: fastSpec(50), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Priority: 5, Malleable: true}
	submit(t, ctl, low)
	eng.RunUntil(100)
	submit(t, ctl, high)
	eng.Run()
	checkErr(t, ctl)
	// Work conservation: low's run time (incl. suspension and costs)
	// is bounded below by its compute plus high's runtime and both
	// costs, and above by adding scheduling latencies.
	rl, _ := ctl.Records.Job("low")
	minimum := 300.0 + 50 + checkpointCost + restartCost
	if rl.RunTime() < minimum-5 || rl.RunTime() > minimum+30 {
		t.Errorf("low run time = %v, want ~%v", rl.RunTime(), minimum)
	}
}

// TestNoPreemptionAmongEqualPriority: equal-priority jobs queue FCFS.
func TestNoPreemptionAmongEqualPriority(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyPreempt)
	a := &Job{Name: "a", Spec: fastSpec(100), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Priority: 1, Malleable: true}
	b := &Job{Name: "b", Spec: fastSpec(50), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Priority: 1, Malleable: true}
	submit(t, ctl, a)
	eng.RunUntil(10)
	submit(t, ctl, b)
	if ctl.RunningLen() != 1 || ctl.QueueLen() != 1 {
		t.Fatal("equal priority should not preempt")
	}
	eng.Run()
	checkErr(t, ctl)
	ra, _ := ctl.Records.Job("a")
	rb, _ := ctl.Records.Job("b")
	if rb.Start < ra.End {
		t.Error("b started before a finished")
	}
}

// TestBuiltinQueueIsFCFS: the builtin planner never backfills — a
// small job that would fit on the free node waits behind the blocked
// head.
func TestBuiltinQueueIsFCFS(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicySerial)
	wide := &Job{Name: "wide", Spec: fastSpec(200), Cfg: apps.Config{Ranks: 1, Threads: 16},
		Nodes: 1, Malleable: true}
	blockedWide := &Job{Name: "blocked", Spec: fastSpec(100), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Malleable: true}
	small := &Job{Name: "small", Spec: fastSpec(50), Cfg: apps.Config{Ranks: 1, Threads: 8},
		Nodes: 1, Malleable: true}
	submit(t, ctl, wide)
	submit(t, ctl, blockedWide)
	submit(t, ctl, small)
	if ctl.RunningLen() != 1 {
		t.Fatalf("running = %d, want FCFS head-of-line blocking", ctl.RunningLen())
	}
	eng.Run()
	checkErr(t, ctl)
}

// TestCancelRunningJob: scancel frees the CPUs and surviving jobs
// expand into them.
func TestCancelRunningJob(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	a := &Job{Name: "a", Spec: fastSpec(500), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	b := &Job{Name: "b", Spec: fastSpec(500), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	submit(t, ctl, a)
	eng.RunUntil(20)
	submit(t, ctl, b) // equipartition 8/8
	eng.RunUntil(40)

	if !ctl.Cancel("a") {
		t.Fatal("Cancel returned false")
	}
	if ctl.Cancel("a") {
		t.Fatal("double Cancel should return false")
	}
	if ctl.RunningLen() != 1 {
		t.Fatalf("running = %d", ctl.RunningLen())
	}
	// b expands back to the full node at its next poll.
	eng.RunUntil(50)
	seg := c.System("node0").Segment()
	entries := seg.Snapshot()
	if len(entries) != 1 || entries[0].CurrentMask.Count() != 16 {
		t.Fatalf("survivor state = %+v", entries)
	}
	eng.Run()
	checkErr(t, ctl)
	ra, _ := ctl.Records.Job("a")
	if ra.End != 40 {
		t.Errorf("cancelled job end = %v, want 40", ra.End)
	}
}

// TestCancelQueuedJob drops it without side effects.
func TestCancelQueuedJob(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicySerial)
	a := &Job{Name: "a", Spec: fastSpec(100), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	b := &Job{Name: "b", Spec: fastSpec(100), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	submit(t, ctl, a)
	submit(t, ctl, b)
	if !ctl.Cancel("b") {
		t.Fatal("Cancel queued returned false")
	}
	if ctl.QueueLen() != 0 {
		t.Fatalf("queue = %d", ctl.QueueLen())
	}
	if ctl.Cancel("zzz") {
		t.Fatal("Cancel unknown should return false")
	}
	eng.Run()
	checkErr(t, ctl)
}

// TestPreemptVsDROMOnUC2Shape: the paper's §6.2 argument — DROM avoids
// both the preemption overhead and the wait. Compare total run time.
func TestPreemptVsDROMOnUC2Shape(t *testing.T) {
	run := func(policy Policy) (total float64) {
		eng, c := newTestCluster()
		ctl := NewController(c, policy)
		long := &Job{Name: "long", Spec: fastSpec(1500), Cfg: apps.Config{Ranks: 2, Threads: 16},
			Nodes: 2, Priority: 0, Malleable: true}
		high := &Job{Name: "high", Spec: fastSpec(300), Cfg: apps.Config{Ranks: 2, Threads: 16},
			Nodes: 2, Priority: 10, Malleable: true}
		submit(t, ctl, long)
		eng.After(500, func() {
			if err := ctl.Submit(high); err != nil {
				t.Error(err)
			}
		})
		eng.Run()
		checkErr(t, ctl)
		return ctl.Records.TotalRunTime()
	}
	drom := run(PolicyDROM)
	preempt := run(PolicyPreempt)
	if drom >= preempt {
		t.Errorf("DROM total %v should beat preemption %v (ckpt+restart overheads)", drom, preempt)
	}
}

// TestPreemptInsideLaunchWindow: a victim preempted before its launch
// latency elapsed never registered, so Stop releases nothing — its
// DROM_PreInit reservations are still in shared memory, and the
// preemption itself must release them or the preemptor's own
// reservations collide with them.
func TestPreemptInsideLaunchWindow(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyPreempt)
	low := &Job{Name: "low", Spec: fastSpec(300), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Priority: 0, Malleable: true}
	high := &Job{Name: "high", Spec: fastSpec(50), Cfg: apps.Config{Ranks: 2, Threads: 16},
		Nodes: 2, Priority: 10, Malleable: true}
	submit(t, ctl, low)
	eng.RunUntil(DefaultLaunchLatency / 2) // low's evStart is still pending
	submit(t, ctl, high)
	if ctl.RunningLen() != 0 || ctl.QueueLen() != 2 {
		t.Fatalf("running=%d queue=%d right after preemption", ctl.RunningLen(), ctl.QueueLen())
	}
	eng.Run()
	checkErr(t, ctl)
	rl, okl := ctl.Records.Job("low")
	rh, okh := ctl.Records.Job("high")
	if !okl || !okh {
		t.Fatalf("records missing: low %v, high %v", okl, okh)
	}
	if rh.End >= rl.End {
		t.Errorf("high ended at %v, the resumed victim at %v", rh.End, rl.End)
	}
	for _, node := range c.Nodes {
		if n := c.System(node).Segment().NumProcs(); n != 0 {
			t.Errorf("%s: %d registrations left behind", node, n)
		}
		if n := c.Demand.Threads(node); n != 0 {
			t.Errorf("%s: %d threads of demand left behind", node, n)
		}
	}
}
