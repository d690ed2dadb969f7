// Package omprt implements an OpenMP-like fork-join runtime with
// resizable thread teams, static/dynamic loop scheduling, a CPU
// binding mask and an OMPT-like tool interface (§4.1). It is the Go
// substitute for the OpenMP runtimes the paper integrates with: DLB
// registers itself as a tool and adjusts the team size and bindings at
// every parallel construct.
//
// Malleability semantics follow the paper exactly: the team size can
// change at any time via SetNumThreads, but takes effect at the *next*
// parallel construct ("OpenMP is not able to modify the number of
// threads until the next parallel construct, but we consider it
// acceptable").
package omprt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cpuset"
)

// Tool is the OMPT-like monitoring interface. DLB registers one to
// observe parallel regions; callbacks run on the thread entering the
// construct, before the team forms (ParallelBegin) and after it joins
// (ParallelEnd). ImplicitTask fires on each team thread.
type Tool interface {
	// ParallelBegin runs before a team is formed; the tool may call
	// Runtime.SetNumThreads / SetBinding to resize the coming region.
	ParallelBegin(rt *Runtime, requested int)
	// ParallelEnd runs after the region joins.
	ParallelEnd(rt *Runtime)
	// ImplicitTask runs on every team thread at region start.
	ImplicitTask(rt *Runtime, threadNum, teamSize int)
}

// ThreadInfo identifies one team thread during a region.
type ThreadInfo struct {
	Num int // thread number within the team
}

// Runtime is an OpenMP-like runtime instance (one per "process").
type Runtime struct {
	mu         sync.Mutex
	numThreads int
	binding    cpuset.CPUSet
	tools      []Tool
	inParallel bool
}

// New creates a runtime with the given initial team size.
func New(numThreads int) *Runtime {
	if numThreads < 1 {
		numThreads = 1
	}
	return &Runtime{numThreads: numThreads}
}

// NewBound creates a runtime bound to a CPU mask; the team size is the
// mask population.
func NewBound(mask cpuset.CPUSet) *Runtime {
	rt := New(mask.Count())
	rt.SetBinding(mask)
	return rt
}

// SetNumThreads sets the team size for subsequent parallel regions
// (omp_set_num_threads). Values < 1 are clamped to 1. Safe to call at
// any time, including from a tool callback or while a region runs (it
// affects only future regions).
func (r *Runtime) SetNumThreads(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	r.numThreads = n
	r.mu.Unlock()
}

// NumThreads returns the team size of the next parallel region.
func (r *Runtime) NumThreads() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.numThreads
}

// SetBinding pins future teams to the CPUs of mask.
func (r *Runtime) SetBinding(mask cpuset.CPUSet) {
	r.mu.Lock()
	r.binding = mask
	r.mu.Unlock()
}

// Binding returns the current binding mask.
func (r *Runtime) Binding() cpuset.CPUSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.binding
}

// RegisterTool attaches an OMPT-like tool. Tools run in registration
// order.
func (r *Runtime) RegisterTool(t Tool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tools = append(r.tools, t)
}

// Parallel executes body on every thread of a new team
// (#pragma omp parallel). body receives the thread number and team
// size. Nested calls run serially on the calling thread with a team of
// one, mirroring OMP_NESTED=false.
func (r *Runtime) Parallel(body func(thread ThreadInfo, teamSize int)) {
	r.mu.Lock()
	if r.inParallel {
		r.mu.Unlock()
		body(ThreadInfo{Num: 0}, 1)
		return
	}
	r.inParallel = true
	requested := r.numThreads
	tools := append([]Tool(nil), r.tools...)
	r.mu.Unlock()

	for _, t := range tools {
		t.ParallelBegin(r, requested)
	}
	// Tools may have resized the team.
	r.mu.Lock()
	n := r.numThreads
	r.mu.Unlock()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(info ThreadInfo) {
			defer wg.Done()
			for _, t := range tools {
				t.ImplicitTask(r, info.Num, n)
			}
			body(info, n)
		}(ThreadInfo{Num: i})
	}
	wg.Wait()

	for _, t := range tools {
		t.ParallelEnd(r)
	}
	r.mu.Lock()
	r.inParallel = false
	r.mu.Unlock()
}

// Schedule selects the loop scheduling policy of ParallelFor.
type Schedule int

const (
	// Static divides iterations into one contiguous chunk per thread
	// (schedule(static)).
	Static Schedule = iota
	// Dynamic hands out iterations one at a time from a shared counter
	// (schedule(dynamic,1)).
	Dynamic
	// Guided hands out exponentially shrinking chunks: remaining/team
	// at each grab, minimum 1 (schedule(guided)).
	Guided
)

// ParallelFor executes body(i) for i in [0, n) on a new team
// (#pragma omp parallel for).
func (r *Runtime) ParallelFor(n int, sched Schedule, body func(i int, thread ThreadInfo)) {
	switch sched {
	case Static:
		r.Parallel(func(ti ThreadInfo, team int) {
			lo, hi := staticChunk(n, ti.Num, team)
			for i := lo; i < hi; i++ {
				body(i, ti)
			}
		})
	case Dynamic:
		var next atomic.Int64
		r.Parallel(func(ti ThreadInfo, team int) {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				body(i, ti)
			}
		})
	case Guided:
		var mu sync.Mutex
		next := 0
		r.Parallel(func(ti ThreadInfo, team int) {
			for {
				mu.Lock()
				remaining := n - next
				if remaining <= 0 {
					mu.Unlock()
					return
				}
				chunk := remaining / team
				if chunk < 1 {
					chunk = 1
				}
				lo := next
				next += chunk
				mu.Unlock()
				for i := lo; i < lo+chunk; i++ {
					body(i, ti)
				}
			}
		})
	default:
		panic(fmt.Sprintf("omprt: unknown schedule %d", sched))
	}
}

// staticChunk returns the [lo,hi) iteration range of thread t in a
// team of size p over n iterations, using the OpenMP static rule
// (earlier threads get the remainder).
func staticChunk(n, t, p int) (int, int) {
	if p <= 0 {
		return 0, n
	}
	base := n / p
	rem := n % p
	lo := t*base + min(t, rem)
	size := base
	if t < rem {
		size++
	}
	return lo, lo + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
