package slurm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/sched"
	"repro/internal/sim"
)

// backlogController builds the heterogeneous preset (4 MN3 nodes next
// to 2 fat nodes) under batch=easy, fat=malleable-expand with
// spillover and the view oracle on, and submits at t=0 a mixed backlog
// several times what the cluster can run at once.
func backlogController(t *testing.T, jobs int) (*sim.Engine, *Controller) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := NewClusterSpecReg(eng, hwmodel.HeteroMN3(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(c, PolicyDROM)
	ps, err := sched.ParsePolicySet("batch=easy,fat=malleable-expand")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.UseSchedSet(ps); err != nil {
		t.Fatal(err)
	}
	ctl.Spillover = true
	ctl.DebugInvariants = true
	for i := 0; i < jobs; i++ {
		part, nodes, threads := "batch", 1+i%3, []int{4, 16, 8, 2}[i%4]
		if i%3 == 2 {
			part, nodes, threads = "fat", 1+i%2, []int{32, 8, 16}[i%3]
		}
		submit(t, ctl, &Job{
			Name: fmt.Sprintf("j%02d", i), Spec: fastSpec(40 + 25*(i%5)),
			Cfg:   apps.Config{Ranks: nodes, Threads: threads},
			Nodes: nodes, Priority: i % 2, Partition: part,
			Walltime: float64(60 + 40*(i%4)), Malleable: i%4 != 1,
		})
	}
	return eng, ctl
}

// sameRecord reports whether two running-job records, one per
// lineage, hold the same job in the same state: everything but the
// instance and its completion hook, slices by content.
func sameRecord(a, b *runningJob) bool {
	return a.job == b.job && a.seq == b.seq && a.pidx == b.pidx && a.homePidx == b.homePidx &&
		a.submit == b.submit && a.start == b.start && a.requeues == b.requeues &&
		a.curCPUs == b.curCPUs && a.curOK == b.curOK &&
		slices.Equal(a.nodeAt, b.nodeAt) && slices.Equal(a.tasks, b.tasks) && slices.Equal(a.nodeIdxs, b.nodeIdxs)
}

// sameQueued is sameRecord for waiting-job records, the checkpoint
// image a resumption starts from included.
func sameQueued(a, b *queuedJob) bool {
	if (a.resume == nil) != (b.resume == nil) || a.resume != nil && !sameRecord(a.resume, b.resume) {
		return false
	}
	ca, cb := *a, *b
	ca.resume, cb.resume = nil, nil
	return ca == cb
}

// TestForkMidBacklogCopiesViews: a fork taken under a standing backlog
// holds, straight away and with no cycle in between, the parent's views
// entry for entry — the policy's entries and the records behind them,
// cloned — and from there both lineages decide identically under the
// store check.
func TestForkMidBacklogCopiesViews(t *testing.T) {
	eng, ctl := backlogController(t, 48)
	eng.RunUntil(90)
	checkErr(t, ctl)
	if ctl.QueueLen() < 10 || ctl.RunningLen() < 3 {
		t.Fatalf("fork point is not mid-backlog: queue=%d running=%d", ctl.QueueLen(), ctl.RunningLen())
	}
	fork, feng, err := ctl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := feng.CheckFork(); err != nil {
		t.Fatal(err)
	}
	for pi := range ctl.views {
		want, got := &ctl.views[pi], &fork.views[pi]
		if got.st.Now != want.st.Now || got.st.Partition != want.st.Partition || got.st.CoresPerNode != want.st.CoresPerNode ||
			!slices.Equal(got.st.Free, want.st.Free) || !slices.Equal(got.st.Queue, want.st.Queue) ||
			!reflect.DeepEqual(got.st.Running, want.st.Running) || got.widthsDirty != want.widthsDirty {
			t.Errorf("partition %d: fork's view\n %+v\nparent's\n %+v", pi, got.st, want.st)
		}
		if !slices.EqualFunc(got.qjobs, want.qjobs, sameQueued) || !slices.EqualFunc(got.rjobs, want.rjobs, sameRecord) {
			t.Errorf("partition %d: the fork's records differ from the parent's", pi)
		}
		for i, q := range got.qjobs {
			if q == want.qjobs[i] || q.resume != nil && q.resume == want.qjobs[i].resume || fork.qBySeq[q.seq] != q {
				t.Errorf("partition %d: queued %s is the parent's record, or the fork's index misses it", pi, q.job.Name)
			}
		}
		for i, r := range got.rjobs {
			if r == want.rjobs[i] || fork.rBySeq[r.seq] != r {
				t.Errorf("partition %d: running %s is the parent's record, or the fork's index misses it", pi, r.job.Name)
			}
		}
	}
	eng.Run()
	feng.Run()
	checkErr(t, ctl)
	checkErr(t, fork)
	if got, want := slices.Collect(fork.Records.All()), slices.Collect(ctl.Records.All()); !slices.Equal(got, want) {
		t.Errorf("fork decided differently:\nfork   %+v\nparent %+v", got, want)
	}
}

// TestCycleSteadyStateAllocs pins the allocation profile of the whole
// scheduling cycle, beside sched's TestScheduleSteadyStateAllocs for
// the policies alone: two partitions with spillover on, every node
// taken, both heads blocked with backfill candidates behind them. A
// cycle that takes no action — hand out the views, two policy passes
// with their reservations, the spillover walk — must not allocate.
func TestCycleSteadyStateAllocs(t *testing.T) {
	eng, _, ctl := spillController(t, true)
	ctl.DebugInvariants = false
	submit(t, ctl, batchJob("b-run", 4000, 4000))
	submit(t, ctl, fatJob("f-run0", 4000, 32, 4000))
	submit(t, ctl, fatJob("f-run1", 4000, 32, 3000))
	for i := 0; i < 6; i++ {
		submit(t, ctl, batchJob(fmt.Sprintf("b-wait%d", i), 50, float64(100+i)))
		submit(t, ctl, fatJob(fmt.Sprintf("f-wait%d", i), 50, 8<<(i%3), float64(200+i)))
	}
	eng.RunUntil(10)
	checkErr(t, ctl)
	if ctl.RunningLen() != 3 || ctl.QueueLen() != 12 {
		t.Fatalf("running=%d queue=%d, want 3 running and 12 blocked", ctl.RunningLen(), ctl.QueueLen())
	}
	ctl.schedCycle() // warm up the scratch buffers
	cycles := ctl.Cycles
	if avg := testing.AllocsPerRun(100, ctl.schedCycle); avg > 0 {
		t.Errorf("%.1f allocs per scheduling cycle in steady state, want 0", avg)
	}
	if ctl.Cycles == cycles || ctl.RunningLen() != 3 || ctl.QueueLen() != 12 {
		t.Fatalf("measured cycles took actions: running=%d queue=%d", ctl.RunningLen(), ctl.QueueLen())
	}
}

// TestLaunchFinishSteadyStateAllocs pins what one job costs the
// controller end to end, beside the idle cycle above: on a controller
// that has seen the shape before, submit → cycle → launch (Figure-2
// reservations) → evStart → iterations → finish → post_term → cycle of
// one more job allocates nothing — the waiting record, the running
// record with its instance, rank array and callbacks, the tracked
// events' slots and the DROM process slots all come back from the
// lists the previous job went onto. The caller's *Job and its name
// are the caller's (built before the measurement), and the records are
// folded as a streamed replay folds them. Nor does a second submission
// at the same instant, whose cycle is deferred to the end of the
// instant (deferCycle books the controller's one bound runCycle).
func TestLaunchFinishSteadyStateAllocs(t *testing.T) {
	t.Run("easy", testSchedLaunchFinishAllocs)
	// The builtin planner (the paper's path) holds the same contract:
	// serial, and DROM with a malleable co-tenant the newcomer shrinks
	// at launch (DROM_PreInit with steal) and hands its CPUs back to at
	// its end (DROM_PostFinalize, release_resources).
	t.Run("builtin-serial", func(t *testing.T) { testBuiltinLaunchFinishAllocs(t, PolicySerial, false) })
	t.Run("builtin-drom-cotenant", func(t *testing.T) { testBuiltinLaunchFinishAllocs(t, PolicyDROM, true) })
}

// testBuiltinLaunchFinishAllocs runs one submit→launch→finish at a
// time through the builtin planner under policy — next to a long
// malleable co-tenant on both nodes when cotenant is set — and holds a
// warm controller to zero allocations per job.
func testBuiltinLaunchFinishAllocs(t *testing.T, policy Policy, cotenant bool) {
	eng, c := newTestCluster()
	ctl := NewController(c, policy)
	ctl.Records.SetAggregate()
	busy := 0
	if cotenant {
		submit(t, ctl, &Job{Name: "cotenant", Spec: fastSpec(1 << 30), Cfg: apps.Config{Ranks: 2, Threads: 16},
			Nodes: 2, Malleable: true})
		eng.RunUntil(10)
		busy = 1
	}
	const runs = 100
	jobs := make([]Job, runs+3)
	for i := range jobs {
		jobs[i] = Job{Name: "j", Spec: fastSpec(20), Cfg: apps.Config{Ranks: 4, Threads: 4},
			Nodes: 2, Malleable: true}
	}
	next, shrunk := 0, 0
	one := func() {
		if err := ctl.Submit(&jobs[next]); err != nil {
			t.Fatal(err)
		}
		next++
		if cotenant {
			if e, _ := ctl.admins[0].Peek(ctl.views[0].rjobs[0].tasks[0].pid); e.Dirty && e.FutureMask.Count() < 16 {
				shrunk++
			}
		}
		for ctl.RunningLen() > busy || ctl.QueueLen() > 0 {
			if !eng.Step() {
				t.Fatal("engine ran dry with the job unfinished")
			}
		}
	}
	one() // warm up: the free lists, the scratch buffers
	one()
	if avg := testing.AllocsPerRun(runs, one); avg > 0 {
		t.Errorf("%.2f allocs per submit→launch→finish in steady state, want 0", avg)
	}
	checkErr(t, ctl)
	if got := ctl.Records.Count(); got != next {
		t.Fatalf("%d of %d jobs recorded", got, next)
	}
	if cotenant {
		if shrunk != next {
			t.Errorf("%d of %d launches shrank the co-tenant", shrunk, next)
		}
		// Every newcomer's CPUs went back: the co-tenant runs on (or
		// has staged) the whole node again.
		for ni := range ctl.admins {
			if e, _ := ctl.admins[ni].Inspect(ctl.views[0].rjobs[0].tasks[ni].pid); e.EffectiveMask().Count() != 16 {
				t.Errorf("node %d: co-tenant holds %v after the last newcomer ended", ni, e.EffectiveMask())
			}
		}
	}
}

// testSchedLaunchFinishAllocs is the contract's sched-path row: one
// job, then pairs of same-instant submissions, under EASY.
func testSchedLaunchFinishAllocs(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	ctl.UseSched(&sched.EASY{})
	ctl.Records.SetAggregate()
	const runs = 100
	jobs := make([]Job, 3*(runs+3))
	for i := range jobs {
		jobs[i] = Job{Name: "j", Spec: fastSpec(20), Cfg: apps.Config{Ranks: 4, Threads: 8},
			Nodes: 2, Walltime: 100, Malleable: true, FailAfter: float64(i % 2 * 1000)}
	}
	next := 0
	one := func() {
		if err := ctl.Submit(&jobs[next]); err != nil {
			t.Fatal(err)
		}
		next++
		eng.Run()
	}
	one() // warm up: the free lists, the scratch buffers, the views
	one()
	if avg := testing.AllocsPerRun(runs, one); avg > 0 {
		t.Errorf("%.2f allocs per submit→launch→finish in steady state, want 0", avg)
	}
	if len(ctl.freeRunning) != 1 || len(ctl.freeQueued) != 1 {
		t.Errorf("free lists hold %d running and %d queued records, want the one of each that was ever live",
			len(ctl.freeRunning), len(ctl.freeQueued))
	}
	// evStart and a stale evInterrupt: two tracked events in flight at
	// most, so two slots, both vacant again — on a copy of the table,
	// two more descriptors reuse them and a third grows it.
	probe := ctl.pend.Clone()
	if a, b, c := probe.Put(pendEv{}), probe.Put(pendEv{}), probe.Put(pendEv{}); min(a, b) != 0 || max(a, b) != 1 || c != 2 {
		t.Errorf("pending-event table handed out slots %d, %d, %d; want two vacant slots 0 and 1, then a new one", a, b, c)
	}
	deferred := 0
	two := func() {
		for k := 0; k < 2; k++ {
			if err := ctl.Submit(&jobs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if ctl.cyclePending {
			deferred++
		}
		eng.Run()
	}
	two() // warm up: a second record of each kind
	two()
	if avg := testing.AllocsPerRun(runs, two); avg > 0 {
		t.Errorf("%.2f allocs per pair of same-instant submissions in steady state, want 0", avg)
	}
	if deferred != runs+3 {
		t.Errorf("%d of %d second submissions deferred their cycle", deferred, runs+3)
	}
	checkErr(t, ctl)
	if got := ctl.Records.Count(); got != next || ctl.RunningLen() != 0 || ctl.QueueLen() != 0 {
		t.Fatalf("%d of %d jobs recorded (running=%d queue=%d)", got, next, ctl.RunningLen(), ctl.QueueLen())
	}
}
