package omprt

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/dlb"
	"repro/internal/core"
	"repro/internal/cpuset"
)

func TestParallelRunsTeam(t *testing.T) {
	rt := New(4)
	var count atomic.Int32
	seen := make([]bool, 4)
	var mu sync.Mutex
	rt.Parallel(func(ti ThreadInfo, team int) {
		count.Add(1)
		if team != 4 {
			t.Errorf("team = %d", team)
		}
		mu.Lock()
		seen[ti.Num] = true
		mu.Unlock()
	})
	if count.Load() != 4 {
		t.Fatalf("ran %d threads", count.Load())
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("thread %d never ran", i)
		}
	}
}

func TestSetNumThreadsTakesEffectNextRegion(t *testing.T) {
	rt := New(8)
	var sizes []int
	rt.Parallel(func(ti ThreadInfo, team int) {
		if ti.Num == 0 {
			sizes = append(sizes, team)
		}
	})
	rt.SetNumThreads(2)
	rt.Parallel(func(ti ThreadInfo, team int) {
		if ti.Num == 0 {
			sizes = append(sizes, team)
		}
	})
	if len(sizes) != 2 || sizes[0] != 8 || sizes[1] != 2 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestSetNumThreadsClamps(t *testing.T) {
	rt := New(0)
	if rt.NumThreads() != 1 {
		t.Errorf("New(0) threads = %d", rt.NumThreads())
	}
	rt.SetNumThreads(-3)
	if rt.NumThreads() != 1 {
		t.Errorf("SetNumThreads(-3) = %d", rt.NumThreads())
	}
}

func TestNestedParallelSerializes(t *testing.T) {
	rt := New(4)
	var inner atomic.Int32
	rt.Parallel(func(ti ThreadInfo, team int) {
		rt.Parallel(func(it ThreadInfo, iteam int) {
			if iteam != 1 {
				t.Errorf("nested team = %d", iteam)
			}
			inner.Add(1)
		})
	})
	if inner.Load() != 4 {
		t.Errorf("nested bodies = %d", inner.Load())
	}
}

func TestParallelForStaticCoversAll(t *testing.T) {
	rt := New(4)
	const n = 103
	hits := make([]atomic.Int32, n)
	rt.ParallelFor(n, Static, func(i int, ti ThreadInfo) {
		hits[i].Add(1)
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestParallelForGuidedCoversAll(t *testing.T) {
	rt := New(4)
	const n = 201
	hits := make([]atomic.Int32, n)
	rt.ParallelFor(n, Guided, func(i int, ti ThreadInfo) {
		hits[i].Add(1)
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestUnknownSchedulePanics(t *testing.T) {
	rt := New(2)
	defer func() {
		if recover() == nil {
			t.Error("unknown schedule should panic")
		}
	}()
	rt.ParallelFor(10, Schedule(99), func(int, ThreadInfo) {})
}

func TestParallelForDynamicCoversAll(t *testing.T) {
	rt := New(3)
	const n = 57
	hits := make([]atomic.Int32, n)
	rt.ParallelFor(n, Dynamic, func(i int, ti ThreadInfo) {
		hits[i].Add(1)
	})
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("iteration %d ran %d times", i, hits[i].Load())
		}
	}
}

func TestStaticChunkProperties(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw)%16 + 1
		covered := 0
		prevHi := 0
		for t := 0; t < p; t++ {
			lo, hi := staticChunk(n, t, p)
			if lo != prevHi { // contiguous, in order
				return false
			}
			if hi < lo {
				return false
			}
			// Chunks differ by at most one iteration.
			if hi-lo > n/p+1 {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n && prevHi == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// toolRecorder records OMPT callback invocations.
type toolRecorder struct {
	mu       sync.Mutex
	begins   int
	ends     int
	implicit int
	resizeTo int
}

func (r *toolRecorder) ParallelBegin(rt *Runtime, requested int) {
	r.mu.Lock()
	r.begins++
	resize := r.resizeTo
	r.mu.Unlock()
	if resize > 0 {
		rt.SetNumThreads(resize)
	}
}
func (r *toolRecorder) ParallelEnd(rt *Runtime) {
	r.mu.Lock()
	r.ends++
	r.mu.Unlock()
}
func (r *toolRecorder) ImplicitTask(rt *Runtime, tn, ts int) {
	r.mu.Lock()
	r.implicit++
	r.mu.Unlock()
}

func TestToolCallbacks(t *testing.T) {
	rt := New(4)
	rec := &toolRecorder{}
	rt.RegisterTool(rec)
	rt.Parallel(func(ti ThreadInfo, team int) {})
	if rec.begins != 1 || rec.ends != 1 || rec.implicit != 4 {
		t.Errorf("recorder = %+v", rec)
	}
}

func TestToolCanResizeRegion(t *testing.T) {
	rt := New(8)
	rec := &toolRecorder{resizeTo: 2}
	rt.RegisterTool(rec)
	var team atomic.Int32
	rt.Parallel(func(ti ThreadInfo, n int) { team.Store(int32(n)) })
	if team.Load() != 2 {
		t.Errorf("tool resize: team = %d, want 2", team.Load())
	}
}

// TestDLBIntegrationShrink is the §4.1 end-to-end flow: an
// administrator shrinks a process; the very next parallel region runs
// with the reduced, re-pinned team.
func TestDLBIntegrationShrink(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	proc, err := dlb.Init(node, 1, cpuset.Range(0, 15), "--drom")
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Finalize()

	rt := NewBound(cpuset.Range(0, 15))
	AttachDLB(rt, proc)

	var team1 atomic.Int32
	rt.Parallel(func(ti ThreadInfo, n int) { team1.Store(int32(n)) })
	if team1.Load() != 16 {
		t.Fatalf("initial team = %d", team1.Load())
	}

	// SLURM-like admin takes CPUs 8-15 away.
	admin, _ := node.Internal().Attach()
	if c := admin.SetProcessMask(1, cpuset.Range(0, 7), core.FlagNone); c.IsError() {
		t.Fatal(c)
	}

	var team2 atomic.Int32
	rt.Parallel(func(ti ThreadInfo, n int) { team2.Store(int32(n)) })
	if team2.Load() != 8 {
		t.Fatalf("team after shrink = %d, want 8", team2.Load())
	}
	if !rt.Binding().Equal(cpuset.Range(0, 7)) {
		t.Errorf("binding = %v", rt.Binding())
	}
}

// TestDLBIntegrationExpand grows the mask back and checks the team
// follows.
func TestDLBIntegrationExpand(t *testing.T) {
	node := dlb.NewNode("node0", 16)
	proc, _ := dlb.Init(node, 1, cpuset.Range(0, 7), "--drom")
	defer proc.Finalize()
	rt := NewBound(cpuset.Range(0, 7))
	AttachDLB(rt, proc)

	admin, _ := node.Internal().Attach()
	admin.SetProcessMask(1, cpuset.Range(0, 15), core.FlagNone)

	var team atomic.Int32
	rt.Parallel(func(ti ThreadInfo, n int) { team.Store(int32(n)) })
	if team.Load() != 16 {
		t.Fatalf("team after expand = %d, want 16", team.Load())
	}
}

func BenchmarkParallelRegionOverhead(b *testing.B) {
	rt := New(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Parallel(func(ti ThreadInfo, n int) {})
	}
}

func BenchmarkPollingPointOverhead(b *testing.B) {
	// Measures the paper's "negligible overhead" claim for the DROM
	// polling mechanism: a parallel region with the DLB tool attached
	// and no pending updates.
	node := dlb.NewNode("node0", 4)
	proc, _ := dlb.Init(node, 1, cpuset.Range(0, 3), "--drom")
	defer proc.Finalize()
	rt := NewBound(cpuset.Range(0, 3))
	AttachDLB(rt, proc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Parallel(func(ti ThreadInfo, n int) {})
	}
}
