// Package mpisim implements an MPI-like message-passing layer for
// in-process ranks (§4.3). Ranks are goroutines; the one collective,
// Allreduce, works over per-rank mailboxes. The package reproduces the
// one MPI feature DROM actually relies on: the PMPI profiling
// interface. Every call runs through pre/post interception hooks,
// which DLB uses as additional polling points and — with LeWI — to
// lend CPUs while a rank blocks.
//
// As in the paper, there is no process-level malleability: the number
// of ranks is fixed for the lifetime of a World.
package mpisim

import (
	"fmt"
	"sync"
)

// Call identifies an intercepted MPI entry point.
type Call string

// CallAllreduce is the one intercepted call.
const CallAllreduce Call = "MPI_Allreduce"

// Hooks is the PMPI interception interface: Pre runs before the real
// call, Post after. Hooks are per-rank so each rank can carry its own
// DLB context.
type Hooks struct {
	Pre  func(call Call)
	Post func(call Call)
}

// mailbox is one rank's incoming queue of reduction values. Only rank
// 0 receives contributions and only rank 0 sends results, and a rank
// contributes to the next reduction only after the previous result
// reached it, so a value needs neither a source nor a tag.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	vals []float64
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(v float64) {
	mb.mu.Lock()
	mb.vals = append(mb.vals, v)
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// get blocks until a value arrives and takes the oldest.
func (mb *mailbox) get() float64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.vals) == 0 {
		mb.cond.Wait()
	}
	v := mb.vals[0]
	mb.vals = mb.vals[1:]
	return v
}

// World is an MPI communicator over in-process ranks.
type World struct {
	size      int
	mailboxes []*mailbox
	ranks     []*Rank
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic("mpisim: world size must be >= 1")
	}
	w := &World{size: size}
	w.mailboxes = make([]*mailbox, size)
	w.ranks = make([]*Rank, size)
	for i := 0; i < size; i++ {
		w.mailboxes[i] = newMailbox()
		w.ranks[i] = &Rank{world: w, rank: i}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Rank returns the handle for rank i.
func (w *World) Rank(i int) *Rank {
	if i < 0 || i >= w.size {
		panic(fmt.Sprintf("mpisim: rank %d out of range [0,%d)", i, w.size))
	}
	return w.ranks[i]
}

// Run executes body on every rank concurrently (mpirun) and waits for
// all of them to return.
func (w *World) Run(body func(r *Rank)) {
	var wg sync.WaitGroup
	for i := 0; i < w.size; i++ {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			body(r)
		}(w.ranks[i])
	}
	wg.Wait()
}

// Rank is one process of the world.
type Rank struct {
	world *World
	rank  int
	hooks Hooks
}

// RankID returns the rank number (MPI_Comm_rank).
func (r *Rank) RankID() int { return r.rank }

// Size returns the communicator size (MPI_Comm_size).
func (r *Rank) Size() int { return r.world.size }

// SetHooks installs the PMPI interception hooks for this rank.
func (r *Rank) SetHooks(h Hooks) { r.hooks = h }

// intercept wraps fn between the Pre and Post hooks.
func (r *Rank) intercept(c Call, fn func()) {
	if r.hooks.Pre != nil {
		r.hooks.Pre(c)
	}
	fn()
	if r.hooks.Post != nil {
		r.hooks.Post(c)
	}
}

// Op is a reduction operator for Allreduce.
type Op func(a, b float64) float64

// OpSum is the sum reduction.
var OpSum Op = func(a, b float64) float64 { return a + b }

// Allreduce combines v across all ranks with op and returns the result
// on every rank (MPI_Allreduce). Implemented as reduce-to-0 + bcast.
func (r *Rank) Allreduce(op Op, v float64) float64 {
	var out float64
	r.intercept(CallAllreduce, func() {
		w := r.world
		if r.rank == 0 {
			acc := v
			for i := 0; i < w.size-1; i++ {
				acc = op(acc, w.mailboxes[0].get())
			}
			for i := 1; i < w.size; i++ {
				w.mailboxes[i].put(acc)
			}
			out = acc
		} else {
			w.mailboxes[0].put(v)
			out = w.mailboxes[r.rank].get()
		}
	})
	return out
}
