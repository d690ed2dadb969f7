package slurm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestNodeSelectionPolicies: with 4 nodes and a 2-node job running,
// the next job goes to the empty nodes — freest first, the paper's
// suggested victim choice — under the builtin planner and under an
// installed sched policy alike.
func TestNodeSelectionPolicies(t *testing.T) {
	place := func(policy string) map[string]bool {
		eng := sim.NewEngine()
		c := mn3Cluster(eng, 4)
		ctl := NewController(c, PolicyDROM)
		if policy != "" {
			p, err := sched.New(policy)
			if err != nil {
				t.Fatal(err)
			}
			ctl.UseSched(p)
		}
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
	for _, policy := range []string{"", "fcfs", "malleable"} {
		if shared := place(policy); len(shared) != 0 {
			t.Errorf("policy %q: jobs share nodes %v", policy, shared)
		}
	}
}
