package slurm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/sched"
	"repro/internal/sim"
)

// newSpillCluster builds the spillover test layout: a 1-node "batch"
// partition of MN3 nodes (16 cores) next to a 2-node "fat" partition
// of 32-core nodes.
func newSpillCluster(t *testing.T) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	spec := hwmodel.ClusterSpec{Partitions: []hwmodel.Partition{
		{Name: "batch", Nodes: 1, Machine: hwmodel.MN3()},
		{Name: "fat", Nodes: 2, Machine: hwmodel.FatNode()},
	}}
	c, err := NewClusterSpecReg(eng, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

// spillController installs EASY on every partition of the spill
// cluster with invariant checking on.
func spillController(t *testing.T, spill bool) (*sim.Engine, *Cluster, *Controller) {
	t.Helper()
	eng, c := newSpillCluster(t)
	ctl := NewController(c, PolicyDROM)
	ctl.UseSched(&sched.EASY{})
	ctl.Spillover = spill
	ctl.DebugInvariants = true
	return eng, c, ctl
}

// batchJob is a full-node job targeting the batch partition.
func batchJob(name string, iters int, walltime float64) *Job {
	return &Job{Name: name, Spec: fastSpec(iters), Cfg: apps.Config{Ranks: 1, Threads: 16},
		Nodes: 1, Walltime: walltime, Malleable: true}
}

// fatJob is a 1-node job of the given width targeting fat.
func fatJob(name string, iters, threads int, walltime float64) *Job {
	return &Job{Name: name, Spec: fastSpec(iters), Cfg: apps.Config{Ranks: 1, Threads: threads},
		Nodes: 1, Walltime: walltime, Malleable: true, Partition: "fat"}
}

// TestSpilloverRoutesBlockedJob: a job whose home partition is full
// spills to a partition that fits its shape and starts immediately;
// its record carries the origin. With the pass disabled the job
// waits at home.
func TestSpilloverRoutesBlockedJob(t *testing.T) {
	for _, spill := range []bool{true, false} {
		eng, _, ctl := spillController(t, spill)
		submit(t, ctl, batchJob("busy", 30, 100))
		submit(t, ctl, batchJob("cand", 20, 50))
		eng.RunUntil(eng.Now()) // settle the coalesced cycle at t=0
		if spill {
			if ctl.RunningLen() != 2 || ctl.QueueLen() != 0 {
				t.Fatalf("spill=on: running=%d queue=%d, want cand spilled to fat",
					ctl.RunningLen(), ctl.QueueLen())
			}
		} else if ctl.RunningLen() != 1 || ctl.QueueLen() != 1 {
			t.Fatalf("spill=off: running=%d queue=%d, want cand waiting at home",
				ctl.RunningLen(), ctl.QueueLen())
		}
		eng.Run()
		checkErr(t, ctl)
		cand, ok := ctl.Records.Job("cand")
		if !ok {
			t.Fatal("no cand record")
		}
		if spill {
			if cand.Partition != "fat" || cand.Origin != "batch" || !cand.Spilled() {
				t.Errorf("spilled record = %+v, want fat with origin batch", cand)
			}
			if cand.Start != 0 {
				t.Errorf("cand started at %v, want immediate spill start", cand.Start)
			}
			if got := tallyOf(ctl.Records).Spilled; got != 1 {
				t.Errorf("Spilled() = %d, want 1", got)
			}
		} else {
			if cand.Partition != "batch" || cand.Origin != "" || cand.Spilled() {
				t.Errorf("home record = %+v, want batch with no origin", cand)
			}
			if got := tallyOf(ctl.Records).Spilled; got != 0 {
				t.Errorf("Spilled() = %d, want 0", got)
			}
		}
	}
}

// TestSpilloverNeverDelaysEASYHead is the shadow-time property: a
// spill candidate that would run past the host head's shadow time on
// a reserved node must stay home; one that ends before the shadow
// spills. Either way the host's blocked head starts as soon as its
// reserved capacity actually frees.
//
// Layout at t=0: fat node holds fa (16 of 32 CPUs, walltime 100) and
// the other fat node is fully owned by fb (walltime 400); head wants
// a full fat node, so it is blocked with a reservation on fa's node
// (shadow ≈ 100). batch is full, so cand (16 CPUs) can only start by
// spilling into fa's spare half.
func TestSpilloverNeverDelaysEASYHead(t *testing.T) {
	for _, tc := range []struct {
		name     string
		walltime float64
		spills   bool
	}{
		{"ends-before-shadow", 50, true},
		{"runs-past-shadow", 500, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, ctl := spillController(t, true)
			submit(t, ctl, fatJob("fa", 100, 16, 100))
			submit(t, ctl, fatJob("fb", 600, 32, 400))
			submit(t, ctl, fatJob("head", 50, 32, 100))
			submit(t, ctl, batchJob("busy", 300, 400))
			submit(t, ctl, batchJob("cand", 20, tc.walltime))
			eng.RunUntil(eng.Now())
			cand := findQueued(ctl, "cand")
			if tc.spills {
				if cand != nil {
					t.Fatal("cand still queued, want it spilled into fa's spare half")
				}
			} else {
				if cand == nil {
					t.Fatal("cand started, want the shadow guard to hold it home")
				}
				if got := ctl.cluster.Spec.Partitions[cand.pidx].Name; got != "batch" {
					t.Fatalf("cand re-routed to %s, want batch", got)
				}
			}
			eng.Run()
			checkErr(t, ctl)
			rh, ok := ctl.Records.Job("head")
			if !ok {
				t.Fatal("no head record")
			}
			rfa, _ := ctl.Records.Job("fa")
			if rh.Start > rfa.End+2 {
				t.Errorf("head started %v, want right after fa ends (%v): the spill delayed the reserved head",
					rh.Start, rfa.End)
			}
			rc, _ := ctl.Records.Job("cand")
			if tc.spills {
				if !rc.Spilled() || rc.Start != 0 {
					t.Errorf("cand = %+v, want an immediate spill into fa's spare half", rc)
				}
			} else if rc.Start < rh.Start {
				// The guard may let cand spill later — once the head has
				// started and holds no reservation — but never before.
				t.Errorf("cand started %v before the reserved head (%v)", rc.Start, rh.Start)
			}
		})
	}
}

// findQueued returns the waiting job with the given name, nil if it
// is not queued.
func findQueued(ctl *Controller, name string) *queuedJob {
	for pi := range ctl.views {
		for _, q := range ctl.views[pi].qjobs {
			if q.job.Name == name {
				return q
			}
		}
	}
	return nil
}

// TestSpilloverThresholds: the wait and depth knobs gate eligibility.
func TestSpilloverThresholds(t *testing.T) {
	// A prohibitive wait threshold: the job never spills and runs at
	// home once the occupant finishes.
	eng, _, ctl := spillController(t, true)
	ctl.SpillAfter = 1e9
	submit(t, ctl, batchJob("busy", 30, 100))
	submit(t, ctl, batchJob("cand", 20, 50))
	eng.Run()
	checkErr(t, ctl)
	if got := tallyOf(ctl.Records).Spilled; got != 0 {
		t.Errorf("SpillAfter=1e9: Spilled() = %d, want 0", got)
	}
	cand, _ := ctl.Records.Job("cand")
	if cand.Partition != "batch" || cand.Start == 0 {
		t.Errorf("cand = %+v, want a late start at home", cand)
	}

	// Depth 2: one waiting job is not enough. With two, spillover
	// drains the backlog until it is back under the threshold (c1
	// spills, c2 stays).
	eng, _, ctl = spillController(t, true)
	ctl.SpillDepth = 2
	submit(t, ctl, batchJob("busy", 30, 100))
	submit(t, ctl, batchJob("c1", 20, 50))
	eng.RunUntil(eng.Now())
	if ctl.QueueLen() != 1 {
		t.Fatalf("depth 2 with backlog 1: queue=%d, want c1 held home", ctl.QueueLen())
	}
	submit(t, ctl, batchJob("c2", 20, 50))
	eng.RunUntil(eng.Now())
	if ctl.QueueLen() != 1 {
		t.Fatalf("depth 2 with backlog 2: queue=%d, want c1 spilled and c2 held", ctl.QueueLen())
	}
	eng.Run()
	checkErr(t, ctl)
	if got := tallyOf(ctl.Records).Spilled; got != 1 {
		t.Errorf("Spilled() = %d, want 1", got)
	}
	c1, _ := ctl.Records.Job("c1")
	c2, _ := ctl.Records.Job("c2")
	if !c1.Spilled() || c2.Spilled() {
		t.Errorf("c1 spilled=%v c2 spilled=%v, want spillover to drain to below the depth", c1.Spilled(), c2.Spilled())
	}
}

// TestSpilloverShapeGuard: a job wider than every other partition's
// node never spills, whatever the congestion.
func TestSpilloverShapeGuard(t *testing.T) {
	eng := sim.NewEngine()
	spec := hwmodel.ClusterSpec{Partitions: []hwmodel.Partition{
		{Name: "fat", Nodes: 1, Machine: hwmodel.FatNode()},
		{Name: "small", Nodes: 2, Machine: hwmodel.MN3()},
	}}
	c, err := NewClusterSpecReg(eng, spec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(c, PolicyDROM)
	ctl.UseSched(&sched.EASY{})
	ctl.Spillover = true
	ctl.DebugInvariants = true
	// fat is busy; the queued 32-wide job cannot fit a 16-core MN3
	// node and must wait at home.
	submit(t, ctl, &Job{Name: "busy", Spec: fastSpec(30), Cfg: apps.Config{Ranks: 1, Threads: 32},
		Nodes: 1, Walltime: 100, Malleable: true, Partition: "fat"})
	submit(t, ctl, &Job{Name: "wide", Spec: fastSpec(10), Cfg: apps.Config{Ranks: 1, Threads: 32},
		Nodes: 1, Walltime: 50, Malleable: true, Partition: "fat"})
	eng.RunUntil(eng.Now())
	if ctl.QueueLen() != 1 {
		t.Fatalf("queue=%d, want wide held home (no 32-core spill target)", ctl.QueueLen())
	}
	eng.Run()
	checkErr(t, ctl)
	if got := tallyOf(ctl.Records).Spilled; got != 0 {
		t.Errorf("Spilled() = %d, want 0", got)
	}
}

// TestUseSchedSet: one fresh instance per partition, resolved from
// the set grammar; a set that leaves a partition without a policy is
// rejected.
func TestUseSchedSet(t *testing.T) {
	_, c := newSpillCluster(t)
	ctl := NewController(c, PolicyDROM)
	ps, err := sched.ParsePolicySet("batch=easy,fat=malleable-shrink")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.UseSchedSet(ps); err != nil {
		t.Fatal(err)
	}
	if got := ctl.scheds[0].Name(); got != "easy" {
		t.Errorf("batch policy = %q", got)
	}
	if got := ctl.scheds[1].Name(); got != "malleable-shrink" {
		t.Errorf("fat policy = %q", got)
	}
	incomplete, err := sched.ParsePolicySet("fat=easy")
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.UseSchedSet(incomplete); err == nil {
		t.Error("UseSchedSet should reject a set that leaves batch without a policy")
	}
}

// TestUseSchedPerPartitionInstances: installing one policy instance
// on a multi-partition cluster clones it per partition (the scratch-
// buffer contract forbids one instance seeing two node shapes).
func TestUseSchedPerPartitionInstances(t *testing.T) {
	_, c := newSpillCluster(t)
	ctl := NewController(c, PolicyDROM)
	p := &sched.EASY{}
	ctl.UseSched(p)
	if ctl.scheds[0] != sched.Policy(p) {
		t.Error("partition 0 should run the given instance")
	}
	if ctl.scheds[1] == sched.Policy(p) {
		t.Error("partition 1 shares the instance, want a fresh clone")
	}
	if got := ctl.scheds[1].Name(); got != "easy" {
		t.Errorf("clone policy = %q", got)
	}
	// A policy the sched registry cannot name is cloned all the same:
	// no instance ever serves two partition shapes.
	custom := &customPolicy{}
	ctl.UseSched(custom)
	if ctl.scheds[0] != sched.Policy(custom) {
		t.Error("partition 0 should run the given custom instance")
	}
	if q, ok := ctl.scheds[1].(*customPolicy); !ok || q == custom {
		t.Errorf("partition 1 runs %T (shared: %v), want its own customPolicy clone", ctl.scheds[1], q == custom)
	}
}

// customPolicy is a policy sched.New does not know.
type customPolicy struct{ sched.FCFS }

func (*customPolicy) Name() string              { return "custom" }
func (*customPolicy) ClonePolicy() sched.Policy { return &customPolicy{} }
