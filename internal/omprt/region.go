package omprt

import "sync"

// Region is the shared state of one executing parallel region,
// providing the intra-team synchronization constructs: barrier,
// single and critical. A Region is only valid inside the body passed
// to ParallelRegion.
//
//simvet:testonly reference construct no example uses; its tests pin it
type Region struct {
	size int

	barMu   sync.Mutex
	barCond *sync.Cond
	barCnt  int
	barGen  int

	critMu sync.Mutex

	singleMu  sync.Mutex
	singleSeq []int // per-thread count of Single constructs passed
	singles   map[int]bool
}

func newRegion(size int) *Region {
	r := &Region{
		size:      size,
		singleSeq: make([]int, size),
		singles:   make(map[int]bool),
	}
	r.barCond = sync.NewCond(&r.barMu)
	return r
}

// Barrier blocks until every thread of the team reaches it
// (#pragma omp barrier). Reusable.
func (r *Region) Barrier() {
	r.barMu.Lock()
	gen := r.barGen
	r.barCnt++
	if r.barCnt == r.size {
		r.barCnt = 0
		r.barGen++
		r.barCond.Broadcast()
	} else {
		for gen == r.barGen {
			r.barCond.Wait()
		}
	}
	r.barMu.Unlock()
}

// Critical executes fn under the team-wide mutual exclusion
// (#pragma omp critical).
func (r *Region) Critical(fn func()) {
	r.critMu.Lock()
	defer r.critMu.Unlock()
	fn()
}

// Single executes fn on exactly one thread of the team — the first to
// arrive — and makes every thread wait at the implicit barrier at the
// end (#pragma omp single). Threads must execute Single constructs in
// the same textual order, as in OpenMP.
func (r *Region) Single(thread int, fn func()) {
	r.singleMu.Lock()
	id := r.singleSeq[thread]
	r.singleSeq[thread]++
	first := !r.singles[id]
	if first {
		r.singles[id] = true
	}
	r.singleMu.Unlock()
	if first {
		fn()
	}
	r.Barrier()
}

// ParallelRegion is Parallel with access to the team synchronization
// constructs. Nested calls serialize with a team of one, like
// Parallel.
//
//simvet:testonly reference construct no example uses; its tests pin it
func (r *Runtime) ParallelRegion(body func(reg *Region, thread ThreadInfo, teamSize int)) {
	var reg *Region
	var once sync.Once
	r.Parallel(func(ti ThreadInfo, team int) {
		once.Do(func() { reg = newRegion(team) })
		// All threads observe reg after the team forms: Parallel
		// starts every thread through the same closure, and once.Do
		// synchronizes the initialization.
		body(reg, ti, team)
	})
}
