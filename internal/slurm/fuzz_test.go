package slurm

// Randomized workload tests: arbitrary streams of malleable jobs on
// 2- and 4-node clusters must preserve the system invariants at every
// point — disjoint per-node masks, no job starved, all jobs eventually
// complete, and work conservation of the CPU partition.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/cpuset"
	"repro/internal/sim"
)

// checkNodeInvariants asserts the shared-memory state of every node is
// consistent: *effective* masks (the staged future for dirty entries —
// current masks may legitimately overlap during the launch window,
// until the victim polls) are pairwise disjoint, non-empty and within
// the node set.
func checkNodeInvariants(t *testing.T, c *Cluster, when string) {
	t.Helper()
	for _, node := range c.Nodes {
		seg := c.System(node).Segment()
		entries := seg.Snapshot()
		var union cpuset.CPUSet
		for _, e := range entries {
			mask := e.CurrentMask
			if e.Dirty {
				mask = e.FutureMask
			}
			if mask.IsEmpty() {
				t.Fatalf("%s: %s pid %d has empty effective mask", when, node, e.PID)
			}
			if !mask.IsSubsetOf(seg.NodeCPUs()) {
				t.Fatalf("%s: %s pid %d mask %v outside node", when, node, e.PID, mask)
			}
			if union.Intersects(mask) {
				t.Fatalf("%s: %s overlapping effective masks (pid %d, %v)", when, node, e.PID, mask)
			}
			union = union.Or(mask)
		}
	}
}

func randomJob(r *rand.Rand, i, nodes int) *Job {
	ranksPerNode := 1 + r.Intn(2)
	threads := []int{1, 2, 4, 8, 16}[r.Intn(5)]
	if ranksPerNode*threads > 16 {
		threads = 16 / ranksPerNode
	}
	spec := apps.Pils()
	return &Job{
		Name:      fmt.Sprintf("job%02d", i),
		Spec:      spec,
		Cfg:       apps.Config{Ranks: ranksPerNode * nodes, Threads: threads},
		Iters:     20 + r.Intn(80),
		Nodes:     nodes,
		Priority:  r.Intn(3),
		Malleable: true,
	}
}

func runRandomWorkload(t *testing.T, seed int64, nodes, jobs int, policy Policy) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	c := mn3Cluster(eng, nodes)
	ctl := NewController(c, policy)

	submitted := 0
	var at float64
	for i := 0; i < jobs; i++ {
		j := randomJob(r, i, nodes)
		at += r.Float64() * 40
		i := i
		eng.At(at, func() {
			if err := ctl.Submit(j); err != nil {
				t.Errorf("submit job%02d: %v", i, err)
				return
			}
		})
		submitted++
	}

	// Interleave invariant checks with execution.
	for k := 0; k < 50; k++ {
		eng.RunUntil(at * float64(k) / 10)
		if ctl.Err != nil {
			t.Fatalf("controller error at check %d: %v", k, ctl.Err)
		}
		checkNodeInvariants(t, c, fmt.Sprintf("seed %d check %d", seed, k))
	}
	eng.Run()
	if ctl.Err != nil {
		t.Fatalf("controller error: %v", ctl.Err)
	}
	checkNodeInvariants(t, c, "final")

	// Every job completed and was recorded.
	if got := len(ctl.Records.Jobs); got != submitted {
		t.Fatalf("recorded %d jobs, submitted %d (queue=%d running=%d)",
			got, submitted, ctl.QueueLen(), ctl.RunningLen())
	}
	// Nothing left behind in shared memory.
	for _, node := range c.Nodes {
		if n := c.System(node).Segment().NumProcs(); n != 0 {
			t.Errorf("%s has %d leaked processes", node, n)
		}
	}
	// Records are sane.
	for _, j := range ctl.Records.Jobs {
		if j.Start < j.Submit || j.End <= j.Start {
			t.Errorf("job %s has inconsistent times: %+v", j.Name, j)
		}
	}
}

func TestRandomWorkloadsDROM(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runRandomWorkload(t, seed, 2, 10, PolicyDROM)
		})
	}
}

func TestRandomWorkloadsSerial(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runRandomWorkload(t, seed, 2, 8, PolicySerial)
		})
	}
}

func TestRandomWorkloadsFourNodes(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runRandomWorkload(t, seed, 4, 12, PolicyDROM)
		})
	}
}

// TestMixedNodeCountJobs exercises jobs of different node footprints
// on a 4-node cluster under DROM.
func TestMixedNodeCountJobs(t *testing.T) {
	eng := sim.NewEngine()
	c := mn3Cluster(eng, 4)
	ctl := NewController(c, PolicyDROM)
	mk := func(name string, nodes, ranks, threads, iters int) *Job {
		return &Job{
			Name: name, Spec: apps.Pils(),
			Cfg:   apps.Config{Ranks: ranks, Threads: threads},
			Iters: iters, Nodes: nodes, Malleable: true,
		}
	}
	if err := ctl.Submit(mk("wide", 4, 4, 16, 200)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(20)
	if err := ctl.Submit(mk("narrow", 2, 2, 4, 50)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(30)
	if ctl.RunningLen() != 2 {
		t.Fatalf("running = %d, want co-allocation", ctl.RunningLen())
	}
	checkNodeInvariants(t, c, "mixed")
	eng.Run()
	if ctl.Err != nil {
		t.Fatal(ctl.Err)
	}
	if len(ctl.Records.Jobs) != 2 {
		t.Fatalf("records = %d", len(ctl.Records.Jobs))
	}
}
