package slurm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
)

// TestEvolvingGrowGrantedFromFreeCPUs: a job asks for more CPUs while
// the node has free capacity; the controller grants the grow.
func TestEvolvingGrowGrantedFromFreeCPUs(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	ctl.ServeEvolving = true
	// A job using half the node.
	j := &Job{Name: "j", Spec: fastSpec(400), Cfg: apps.Config{Ranks: 2, Threads: 8}, Nodes: 2, Malleable: true}
	submit(t, ctl, j)
	eng.RunUntil(20)

	seg := c.System("node0").Segment()
	pids := seg.PIDList()
	if len(pids) != 1 {
		t.Fatalf("pids = %v", pids)
	}
	// The application requests 12 CPUs (evolving model).
	if code := c.System("node0").RequestResize(pids[0], 12); code.IsError() {
		t.Fatal(code)
	}
	ctl.ServeEvolvingRequests()
	checkErr(t, ctl)
	e, _ := seg.Lookup(pids[0])
	if !e.Dirty || e.FutureMask.Count() != 12 {
		t.Fatalf("grant not staged: %+v", e)
	}
	eng.RunUntil(30)
	e, _ = seg.Lookup(pids[0])
	if e.CurrentMask.Count() != 12 {
		t.Fatalf("grant not applied: %v", e.CurrentMask)
	}
	eng.Run()
	checkErr(t, ctl)
}

// TestEvolvingShrinkAlwaysGranted: shrink requests are satisfied even
// on a full node.
func TestEvolvingShrinkAlwaysGranted(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	j := &Job{Name: "j", Spec: fastSpec(400), Cfg: apps.Config{Ranks: 2, Threads: 16}, Nodes: 2, Malleable: true}
	submit(t, ctl, j)
	eng.RunUntil(20)
	pids := c.System("node0").Segment().PIDList()
	c.System("node0").RequestResize(pids[0], 4)
	ctl.ServeEvolvingRequests()
	checkErr(t, ctl)
	eng.RunUntil(30)
	e, _ := c.System("node0").Segment().Lookup(pids[0])
	if e.CurrentMask.Count() != 4 {
		t.Fatalf("shrink not applied: %v", e.CurrentMask)
	}
	eng.Run()
}

// TestEvolvingGrowDeferredUntilFree: a grow request on a full node
// waits; when the co-runner finishes, the completion hook serves it.
func TestEvolvingGrowDeferredUntilFree(t *testing.T) {
	eng, c := newTestCluster()
	ctl := NewController(c, PolicyDROM)
	ctl.ServeEvolving = true
	long := &Job{Name: "long", Spec: fastSpec(600), Cfg: apps.Config{Ranks: 2, Threads: 8}, Nodes: 2, Malleable: true}
	short := &Job{Name: "short", Spec: fastSpec(30), Cfg: apps.Config{Ranks: 2, Threads: 8}, Nodes: 2, Malleable: true}
	submit(t, ctl, long)
	eng.RunUntil(5)
	submit(t, ctl, short)
	eng.RunUntil(10)

	seg := c.System("node0").Segment()
	pids := seg.PIDList()
	// long's task asks for the full node while short occupies half.
	c.System("node0").RequestResize(pids[0], 16)
	ctl.ServeEvolvingRequests()
	e, _ := seg.Lookup(pids[0])
	if e.Dirty && e.FutureMask.Count() == 16 {
		t.Fatal("grow granted while node full")
	}
	// When short ends, the request is served automatically.
	eng.Run()
	checkErr(t, ctl)
	rl, _ := ctl.Records.Job("long")
	rs, _ := ctl.Records.Job("short")
	if rl.End <= rs.End {
		t.Fatal("setup: long should outlive short")
	}
}

// TestNodeSelectionPolicies: with 4 nodes and a 2-node job running,
// SelectFreest sends the next job to the empty nodes while
// SelectPacked consolidates onto the busy ones.
func TestNodeSelectionPolicies(t *testing.T) {
	place := func(sel NodeSelection) map[string]bool {
		eng := sim.NewEngine()
		c := mn3Cluster(eng, 4)
		ctl := NewController(c, PolicyDROM)
		ctl.NodeSelection = sel
		a := &Job{Name: "a", Spec: fastSpec(300), Cfg: apps.Config{Ranks: 2, Threads: 8}, Nodes: 2, Malleable: true}
		b := &Job{Name: "b", Spec: fastSpec(100), Cfg: apps.Config{Ranks: 2, Threads: 4}, Nodes: 2, Malleable: true}
		if err := ctl.Submit(a); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(10)
		if err := ctl.Submit(b); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(20)
		busy := map[string]bool{}
		for _, node := range c.Nodes {
			if c.System(node).Segment().NumProcs() > 1 {
				busy[node] = true
			}
		}
		eng.Run()
		checkErr(t, ctl)
		return busy
	}
	if shared := place(SelectFreest); len(shared) != 0 {
		t.Errorf("freest: jobs share nodes %v", shared)
	}
	if shared := place(SelectPacked); len(shared) != 2 {
		t.Errorf("packed: want 2 shared nodes, got %v", shared)
	}
}
