package ompss

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/dlb"
	"repro/internal/core"
	"repro/internal/cpuset"
)

func TestSubmitAndWait(t *testing.T) {
	rt := New(4)
	defer rt.Shutdown()
	var n atomic.Int32
	for i := 0; i < 100; i++ {
		rt.Submit(func() { n.Add(1) })
	}
	rt.TaskWait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks", n.Load())
	}
}

func TestTaskWaitOnEmptyRuntime(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()
	done := make(chan struct{})
	go func() {
		rt.TaskWait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("TaskWait on empty runtime blocked")
	}
}

func TestOutInDependency(t *testing.T) {
	rt := New(4)
	defer rt.Shutdown()
	var order []string
	var mu sync.Mutex
	log := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	rt.Submit(func() {
		time.Sleep(10 * time.Millisecond)
		log("write")
	}, Dep{"x", Out})
	rt.Submit(func() { log("read1") }, Dep{"x", In})
	rt.Submit(func() { log("read2") }, Dep{"x", In})
	rt.TaskWait()
	if len(order) != 3 || order[0] != "write" {
		t.Fatalf("order = %v", order)
	}
}

func TestWriteAfterReadDependency(t *testing.T) {
	rt := New(4)
	defer rt.Shutdown()
	var readsDone atomic.Int32
	var writerSawReads atomic.Bool
	for i := 0; i < 3; i++ {
		rt.Submit(func() {
			time.Sleep(5 * time.Millisecond)
			readsDone.Add(1)
		}, Dep{"x", In})
	}
	rt.Submit(func() {
		writerSawReads.Store(readsDone.Load() == 3)
	}, Dep{"x", InOut})
	rt.TaskWait()
	if !writerSawReads.Load() {
		t.Fatal("writer ran before all readers finished")
	}
}

func TestWriteAfterWriteChain(t *testing.T) {
	rt := New(8)
	defer rt.Shutdown()
	var val int32
	var vals []int32
	var mu sync.Mutex
	for i := int32(1); i <= 5; i++ {
		i := i
		rt.Submit(func() {
			atomic.StoreInt32(&val, i)
			mu.Lock()
			vals = append(vals, i)
			mu.Unlock()
		}, Dep{"v", InOut})
	}
	rt.TaskWait()
	for i, v := range vals {
		if v != int32(i+1) {
			t.Fatalf("writes out of order: %v", vals)
		}
	}
}

func TestIndependentTasksRunConcurrently(t *testing.T) {
	rt := New(4)
	defer rt.Shutdown()
	var running atomic.Int32
	var maxSeen atomic.Int32
	for i := 0; i < 4; i++ {
		rt.Submit(func() {
			cur := running.Add(1)
			for {
				m := maxSeen.Load()
				if cur <= m || maxSeen.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			running.Add(-1)
		})
	}
	rt.TaskWait()
	if maxSeen.Load() < 2 {
		t.Errorf("max concurrency = %d, want >= 2", maxSeen.Load())
	}
}

func TestDiamondDependency(t *testing.T) {
	rt := New(4)
	defer rt.Shutdown()
	var trace []string
	var mu sync.Mutex
	log := func(s string) {
		mu.Lock()
		trace = append(trace, s)
		mu.Unlock()
	}
	rt.Submit(func() { log("a") }, Dep{"a", Out})
	rt.Submit(func() { log("b") }, Dep{"a", In}, Dep{"b", Out})
	rt.Submit(func() { log("c") }, Dep{"a", In}, Dep{"c", Out})
	rt.Submit(func() { log("d") }, Dep{"b", In}, Dep{"c", In})
	rt.TaskWait()
	pos := map[string]int{}
	for i, s := range trace {
		pos[s] = i
	}
	if pos["a"] > pos["b"] || pos["a"] > pos["c"] || pos["b"] > pos["d"] || pos["c"] > pos["d"] {
		t.Fatalf("diamond order violated: %v", trace)
	}
}

func TestPriorityOrdering(t *testing.T) {
	rt := New(1) // single worker: strict execution order
	defer rt.Shutdown()
	var mu sync.Mutex
	var order []int
	log := func(v int) {
		mu.Lock()
		order = append(order, v)
		mu.Unlock()
	}
	// Block the worker so all submissions land in the ready queue.
	gate := make(chan struct{})
	rt.Submit(func() { <-gate })
	rt.SubmitPriority(func() { log(1) }, 0)
	rt.SubmitPriority(func() { log(2) }, 5)
	rt.SubmitPriority(func() { log(3) }, 5)
	rt.SubmitPriority(func() { log(4) }, 9)
	close(gate)
	rt.TaskWait()
	want := []int{4, 2, 3, 1} // priority desc, FIFO within priority
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPriorityNeverOverridesDependencies(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()
	var mu sync.Mutex
	var order []string
	log := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	rt.SubmitPriority(func() {
		time.Sleep(5 * time.Millisecond)
		log("producer")
	}, 0, Dep{"x", Out})
	rt.SubmitPriority(func() { log("consumer") }, 100, Dep{"x", In})
	rt.TaskWait()
	if len(order) != 2 || order[0] != "producer" {
		t.Fatalf("order = %v", order)
	}
}

func TestPoolResize(t *testing.T) {
	rt := New(8)
	defer rt.Shutdown()
	rt.SetNumWorkers(2)
	// Excess workers exit once idle.
	deadline := time.After(2 * time.Second)
	for rt.ActiveWorkers() > 2 {
		select {
		case <-deadline:
			t.Fatalf("pool did not shrink: %d active", rt.ActiveWorkers())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	rt.SetNumWorkers(6)
	if rt.NumWorkers() != 6 {
		t.Errorf("NumWorkers = %d", rt.NumWorkers())
	}
	var n atomic.Int32
	for i := 0; i < 50; i++ {
		rt.Submit(func() { n.Add(1) })
	}
	rt.TaskWait()
	if n.Load() != 50 {
		t.Fatalf("after resize ran %d tasks", n.Load())
	}
}

func TestSetNumWorkersClamps(t *testing.T) {
	rt := New(2)
	defer rt.Shutdown()
	rt.SetNumWorkers(0)
	if rt.NumWorkers() != 1 {
		t.Errorf("NumWorkers = %d, want clamp to 1", rt.NumWorkers())
	}
}

func TestShutdownStopsWorkers(t *testing.T) {
	rt := New(4)
	var n atomic.Int32
	for i := 0; i < 10; i++ {
		rt.Submit(func() { n.Add(1) })
	}
	rt.Shutdown()
	if n.Load() != 10 {
		t.Fatalf("Shutdown lost tasks: %d", n.Load())
	}
	if rt.ActiveWorkers() != 0 {
		t.Errorf("workers alive after Shutdown: %d", rt.ActiveWorkers())
	}
}

func TestSubmitAfterShutdownPanics(t *testing.T) {
	rt := New(1)
	rt.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("Submit after Shutdown should panic")
		}
	}()
	rt.Submit(func() {})
}

// TestDLBTaskGranularityShrink: an admin shrinks the process; the pool
// follows at a task boundary, not at the end of the whole task batch.
func TestDLBTaskGranularityShrink(t *testing.T) {
	node := dlb.NewNode("node0", 8)
	proc, err := dlb.Init(node, 1, cpuset.Range(0, 7), "--drom")
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Finalize()

	rt := New(8)
	defer rt.Shutdown()
	AttachDLB(rt, proc)

	admin, _ := node.Internal().Attach()

	release := make(chan struct{})
	var started atomic.Int32
	// First wave occupies the workers.
	for i := 0; i < 8; i++ {
		rt.Submit(func() {
			started.Add(1)
			<-release
		})
	}
	for started.Load() < 8 {
		time.Sleep(time.Millisecond)
	}
	// Admin shrinks to 2 CPUs while tasks are in flight.
	if c := admin.SetProcessMask(1, cpuset.Range(0, 1), core.FlagNone); c.IsError() {
		t.Fatal(c)
	}
	close(release)
	rt.TaskWait()

	// Workers polled at the task boundary and the pool shrank.
	deadline := time.After(2 * time.Second)
	for rt.NumWorkers() != 2 || rt.ActiveWorkers() > 2 {
		select {
		case <-deadline:
			t.Fatalf("pool did not follow DROM shrink: wanted=%d active=%d",
				rt.NumWorkers(), rt.ActiveWorkers())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func BenchmarkTaskThroughput(b *testing.B) {
	rt := New(4)
	defer rt.Shutdown()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Submit(func() {})
	}
	rt.TaskWait()
}

func BenchmarkDependencyChain(b *testing.B) {
	rt := New(4)
	defer rt.Shutdown()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Submit(func() {}, Dep{"x", InOut})
	}
	rt.TaskWait()
}
