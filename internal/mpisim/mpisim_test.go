package mpisim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dlb"
	"repro/internal/core"
	"repro/internal/cpuset"
)

func TestAllreduce(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(r *Rank) {
		sum := r.Allreduce(OpSum, float64(r.RankID()))
		if sum != 10 { // 0+1+2+3+4
			t.Errorf("rank %d sum = %v", r.RankID(), sum)
		}
		// Reusable: a second reduction sees only its own contributions.
		sum = r.Allreduce(OpSum, float64(r.RankID()*r.RankID()))
		if sum != 30 { // 0+1+4+9+16
			t.Errorf("rank %d sum of squares = %v", r.RankID(), sum)
		}
	})
}

func TestWorldValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewWorld(0) should panic")
			}
		}()
		NewWorld(0)
	}()
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Error("Rank out of range should panic")
		}
	}()
	w.Rank(5)
}

func TestHooksFire(t *testing.T) {
	w := NewWorld(2)
	var pre, post atomic.Int32
	w.Run(func(r *Rank) {
		r.SetHooks(Hooks{
			Pre:  func(c Call) { pre.Add(1) },
			Post: func(c Call) { post.Add(1) },
		})
		r.Allreduce(OpSum, 1)
	})
	if pre.Load() != 2 || post.Load() != 2 {
		t.Errorf("hooks fired pre=%d post=%d", pre.Load(), post.Load())
	}
}

// TestDLBInterceptionPollsDROM: the PMPI hook applies a pending DROM
// mask when the rank enters an MPI call — the paper's "more
// synchronization points" integration.
func TestDLBInterceptionPollsDROM(t *testing.T) {
	node := dlb.NewNode("node0", 16)

	w := NewWorld(2)
	var procs [2]*dlb.Process
	for i := 0; i < 2; i++ {
		mask := cpuset.Range(i*8, i*8+7)
		proc, err := dlb.Init(node, dlb.PID(100+i), mask, "--drom")
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = proc
		AttachDLB(w.Rank(i), proc)
	}
	defer procs[0].Finalize()
	defer procs[1].Finalize()

	admin, _ := node.Internal().Attach()
	if c := admin.SetProcessMask(100, cpuset.Range(0, 3), core.FlagNone); c.IsError() {
		t.Fatal(c)
	}

	w.Run(func(r *Rank) {
		r.Allreduce(OpSum, 0) // interception point: rank 0 applies the new mask here
	})
	if !procs[0].Mask().Equal(cpuset.Range(0, 3)) {
		t.Errorf("rank 0 mask = %v, want 0-3", procs[0].Mask())
	}
	if !procs[1].Mask().Equal(cpuset.Range(8, 15)) {
		t.Errorf("rank 1 mask = %v, want untouched", procs[1].Mask())
	}
}

// TestDLBLewiLendDuringBlocking: while a rank waits in Allreduce for
// its peer's contribution, its CPUs are lent; the peer can borrow them
// before it contributes, and they come back afterwards.
func TestDLBLewiLendDuringBlocking(t *testing.T) {
	node := dlb.NewNode("node0", 8)

	w := NewWorld(2)
	proc0, _ := dlb.Init(node, 100, cpuset.Range(0, 3), "--drom --lewi")
	proc1, _ := dlb.Init(node, 101, cpuset.Range(4, 7), "--drom --lewi")
	defer proc0.Finalize()
	defer proc1.Finalize()
	AttachDLB(w.Rank(0), proc0)
	AttachDLB(w.Rank(1), proc1)

	borrowed := make(chan cpuset.CPUSet, 1)
	w.Run(func(r *Rank) {
		if r.RankID() == 0 {
			// Blocks in Allreduce until rank 1 contributes: LeWI lends 3
			// of its 4 CPUs.
			r.Allreduce(OpSum, 0)
		} else {
			// Give rank 0 time to block, then borrow.
			deadline := time.After(2 * time.Second)
			for {
				if got := proc1.Borrow(); !got.IsEmpty() {
					borrowed <- got
					break
				}
				select {
				case <-deadline:
					borrowed <- cpuset.CPUSet{}
					break
				default:
					time.Sleep(time.Millisecond)
					continue
				}
				break
			}
			r.Allreduce(OpSum, 1)
		}
	})
	got := <-borrowed
	if got.IsEmpty() {
		t.Fatal("peer could not borrow lent CPUs")
	}
	if !got.IsSubsetOf(cpuset.Range(1, 3)) {
		t.Errorf("borrowed = %v, want subset of rank 0's lendable CPUs", got)
	}
	// After Allreduce returned, rank 0 reclaimed its own CPUs.
	if !proc0.Mask().IsSubsetOf(cpuset.Range(0, 3)) || proc0.Mask().IsEmpty() {
		t.Errorf("rank 0 mask after unblock = %v", proc0.Mask())
	}
}

func BenchmarkAllreduce(b *testing.B) {
	w := NewWorld(4)
	b.ReportAllocs()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				r.Allreduce(OpSum, 1)
			}
		}(w.Rank(i))
	}
	wg.Wait()
}
