package slurm

// Registry-failure scenarios: the controller must survive a flaky
// shmem backend that fails admin writes loudly (ErrNoShmem) — with
// degraded metrics (ShmemFaults counting the absorbed failures,
// caches invalidated and rebuilt, launch reservations retried) rather
// than a poisoned ctl.Err or a panic.
//
// The scenario injects only the loud-failure class. Silent drops and
// stale reads are Byzantine from the controller's point of view — a
// dropped PreInit reports success while leaving the task to register
// an overlapping mask, which no amount of controller-side care can
// distinguish from a correct grant without read-back verification —
// and those classes are pinned at the shmem layer (fault_test.go).
// ReadFailRate also stays zero: the application side registers
// through the same segment, and failing its registration Lookup
// models a crashed node (covered by the node-failure suite), not a
// flaky registry.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hwmodel"
	"repro/internal/shmem"
	"repro/internal/sim"
)

// newFaultyCluster builds a 2-node cluster whose every DROM segment
// sits behind a seeded fault injector wrapping the in-memory backend.
func newFaultyCluster(t *testing.T, eng *sim.Engine, nodes int, cfg shmem.FaultConfig) (*Cluster, *shmem.FaultBackend) {
	t.Helper()
	fb := shmem.NewFaultBackend(shmem.NewMemBackend(), cfg)
	c, err := NewClusterSpecReg(eng, hwmodel.Homogeneous(DefaultPartition, hwmodel.MN3(), nodes), nil,
		shmem.NewRegistryWith(fb))
	if err != nil {
		t.Fatal(err)
	}
	return c, fb
}

func runFaultyWorkload(t *testing.T, seed int64, cfg shmem.FaultConfig) (*Controller, *shmem.FaultBackend) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	c, fb := newFaultyCluster(t, eng, 2, cfg)
	ctl := NewController(c, PolicyDROM)
	submitted := 0
	var at float64
	for i := 0; i < 10; i++ {
		j := randomJob(r, i, 2)
		at += r.Float64() * 40
		eng.At(at, func() {
			if err := ctl.Submit(j); err != nil {
				t.Errorf("submit %s: %v", j.Name, err)
			}
		})
		submitted++
	}
	eng.Run()
	if ctl.Err != nil {
		t.Fatalf("controller poisoned by flaky registry: %v", ctl.Err)
	}
	if got := len(ctl.Records.Jobs); got != submitted {
		t.Fatalf("recorded %d jobs, submitted %d (queue=%d running=%d)",
			got, submitted, ctl.QueueLen(), ctl.RunningLen())
	}
	return ctl, fb
}

func TestControllerSurvivesFlakyRegistry(t *testing.T) {
	cfg := shmem.FaultConfig{Seed: 99, WriteFailRate: 0.1}
	ctl, fb := runFaultyWorkload(t, 7, cfg)
	counts := fb.Counts()
	if counts.WriteFails == 0 {
		t.Fatal("fault backend injected nothing; scenario is vacuous")
	}
	if ctl.ShmemFaults == 0 {
		t.Fatalf("injected %d write failures but controller absorbed none (ShmemFaults=0)", counts.WriteFails)
	}
	t.Logf("completed with faults=%+v absorbed=%d", counts, ctl.ShmemFaults)
}

// TestControllerFlakyRegistryDeterministic: the fault pattern is a
// pure function of the seed and the (single-threaded) replay op
// sequence, so the degraded run must reproduce exactly — including at
// -cpu 1,4,8, which the race job exercises.
func TestControllerFlakyRegistryDeterministic(t *testing.T) {
	cfg := shmem.FaultConfig{Seed: 123, WriteFailRate: 0.15}
	type outcome struct {
		faults shmem.FaultCounts
		shmem  int
		jobs   string
	}
	run := func() outcome {
		ctl, fb := runFaultyWorkload(t, 11, cfg)
		jobs := ""
		for _, j := range ctl.Records.Jobs {
			jobs += fmt.Sprintf("%s:%.6f:%.6f;", j.Name, j.Start, j.End)
		}
		return outcome{faults: fb.Counts(), shmem: ctl.ShmemFaults, jobs: jobs}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("degraded run not deterministic:\n a=%+v\n b=%+v", a, b)
	}
}

// TestCleanBackendZeroFaultCounters pins the degraded-metrics
// contract from the other side: on a healthy backend nothing is
// absorbed, so a nonzero ShmemFaults is always a real signal.
func TestCleanBackendZeroFaultCounters(t *testing.T) {
	ctl, fb := runFaultyWorkload(t, 7, shmem.FaultConfig{Seed: 99})
	if c := fb.Counts(); c != (shmem.FaultCounts{}) {
		t.Fatalf("zero-rate backend injected %+v", c)
	}
	if ctl.ShmemFaults != 0 {
		t.Fatalf("ShmemFaults = %d on a clean backend", ctl.ShmemFaults)
	}
	// And shared memory drains completely on the clean run.
	for _, node := range ctl.cluster.Nodes {
		if n := ctl.cluster.System(node).Segment().NumProcs(); n != 0 {
			t.Errorf("%s leaked %d processes", node, n)
		}
	}
}

// TestForkFlakyRegistryDifferential: a fork taken on a flaky registry
// continues the fault stream and carries the degraded-fault counters,
// so fork and parent both finish with the uninterrupted run's records,
// ShmemFaults and injected-fault counts, whichever runs first.
func TestForkFlakyRegistryDifferential(t *testing.T) {
	cfg := shmem.FaultConfig{Seed: 123, WriteFailRate: 0.15}
	type outcome struct {
		faults shmem.FaultCounts
		shmem  int
		jobs   string
	}
	// Every job is submitted at t=0, so no pending event is the
	// caller's to re-bind in a fork.
	open := func() *Controller {
		r := rand.New(rand.NewSource(11))
		c, _ := newFaultyCluster(t, sim.NewEngine(), 2, cfg)
		ctl := NewController(c, PolicyDROM)
		for i := 0; i < 10; i++ {
			if err := ctl.Submit(randomJob(r, i, 2)); err != nil {
				t.Fatal(err)
			}
		}
		return ctl
	}
	observe := func(ctl *Controller) outcome {
		jobs := ""
		for j := range ctl.Records.All() {
			jobs += fmt.Sprintf("%s:%v:%v;", j.Name, j.Start, j.End)
		}
		fb := ctl.cluster.reg.Backend.(*shmem.FaultBackend)
		return outcome{faults: fb.Counts(), shmem: ctl.ShmemFaults, jobs: jobs}
	}
	finish := func(label string, ctl *Controller) outcome {
		ctl.cluster.Engine.Run()
		if ctl.Err != nil {
			t.Fatalf("%s: %v", label, ctl.Err)
		}
		return observe(ctl)
	}

	base := open()
	want := finish("uninterrupted", base)
	mid := base.Records.TotalRunTime() / 2
	for _, parentFirst := range []bool{false, true} {
		ctl := open()
		ctl.cluster.Engine.RunUntil(mid)
		if at := observe(ctl); at.faults.WriteFails == 0 || at.shmem == 0 || ctl.RunningLen()+ctl.QueueLen() == 0 {
			t.Fatalf("t=%g: faults %+v absorbed %d with %d jobs left; the differential is vacuous",
				mid, at.faults, at.shmem, ctl.RunningLen()+ctl.QueueLen())
		}
		fork, eng, err := ctl.Fork()
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckFork(); err != nil {
			t.Fatal(err)
		}
		var fres, pres outcome
		if parentFirst {
			pres, fres = finish("parent", ctl), finish("fork", fork)
		} else {
			fres, pres = finish("fork", fork), finish("parent", ctl)
		}
		if fres != want {
			t.Errorf("fork (parent first: %v):\n got  %+v\n want %+v", parentFirst, fres, want)
		}
		if pres != want {
			t.Errorf("parent after fork (parent first: %v):\n got  %+v\n want %+v", parentFirst, pres, want)
		}
	}
}
