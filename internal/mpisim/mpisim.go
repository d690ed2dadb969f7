// Package mpisim implements an MPI-like message-passing layer for
// in-process ranks (§4.3). Ranks are goroutines; point-to-point
// messages and collectives work over per-rank mailboxes. The package
// reproduces the one MPI feature DROM actually relies on: the PMPI
// profiling interface. Every call runs through pre/post interception
// hooks, which DLB uses as additional polling points and — with LeWI —
// to lend CPUs while a rank blocks.
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

// Intercepted calls.
const (
	CallSend      Call = "MPI_Send"
	CallAllreduce Call = "MPI_Allreduce"
)

// Intercepted calls of the reference operations.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
const (
	CallRecv     Call = "MPI_Recv"
	CallBarrier  Call = "MPI_Barrier"
	CallGather   Call = "MPI_Gather"
	CallAlltoall Call = "MPI_Alltoall"
)

// Blocking reports whether the call can block waiting for remote
// progress. A buffered send never blocks; everything else can.
func (c Call) Blocking() bool {
	return c != CallSend
}

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Hooks is the PMPI interception interface: Pre runs before the real
// call, Post after. Hooks are per-rank so each rank can carry its own
// DLB context.
type Hooks struct {
	Pre  func(call Call)
	Post func(call Call)
}

// message is an in-flight point-to-point message.
type message struct {
	src, tag int
	data     interface{}
}

// mailbox is one rank's incoming queue.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m message) {
	mb.mu.Lock()
	mb.msgs = append(mb.msgs, m)
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

func (mb *mailbox) get(src, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.msgs {
			if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
				mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
				return m
			}
		}
		mb.cond.Wait()
	}
}

// World is an MPI communicator over in-process ranks.
type World struct {
	size      int
	mailboxes []*mailbox
	ranks     []*Rank

	barrierMu   sync.Mutex
	barrierCond *sync.Cond
	barrierCnt  int
	barrierGen  int
}

// NewWorld creates a communicator with the given number of ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic("mpisim: world size must be >= 1")
	}
	w := &World{size: size}
	w.barrierCond = sync.NewCond(&w.barrierMu)
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

// internal tags for collectives, out of the user tag space.
const (
	tagGather = -1000 - iota
	tagReduce
	tagAlltoall
)

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

// Send delivers data to rank `to` with the given tag (buffered, never
// blocks).
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Send(to, tag int, data interface{}) {
	r.intercept(CallSend, func() {
		r.world.mailboxes[to].put(message{src: r.rank, tag: tag, data: data})
	})
}

// Recv blocks until a message matching (from, tag) arrives and returns
// its payload. AnySource/AnyTag match anything.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Recv(from, tag int) interface{} {
	var out interface{}
	r.intercept(CallRecv, func() {
		out = r.world.mailboxes[r.rank].get(from, tag).data
	})
	return out
}

// Barrier blocks until every rank has entered it (MPI_Barrier).
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Barrier() {
	r.intercept(CallBarrier, func() {
		w := r.world
		w.barrierMu.Lock()
		gen := w.barrierGen
		w.barrierCnt++
		if w.barrierCnt == w.size {
			w.barrierCnt = 0
			w.barrierGen++
			w.barrierCond.Broadcast()
		} else {
			for gen == w.barrierGen {
				w.barrierCond.Wait()
			}
		}
		w.barrierMu.Unlock()
	})
}

// Gather collects every rank's value at root (MPI_Gather). Root
// receives a slice indexed by rank; other ranks receive nil.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Gather(root int, data interface{}) []interface{} {
	var out []interface{}
	r.intercept(CallGather, func() {
		if r.rank == root {
			out = make([]interface{}, r.world.size)
			out[root] = data
			for i := 0; i < r.world.size-1; i++ {
				m := r.world.mailboxes[root].get(AnySource, tagGather)
				out[m.src] = m.data
			}
		} else {
			r.world.mailboxes[root].put(message{src: r.rank, tag: tagGather, data: data})
		}
	})
	return out
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
				m := w.mailboxes[0].get(AnySource, tagReduce)
				acc = op(acc, m.data.(float64))
			}
			for i := 1; i < w.size; i++ {
				w.mailboxes[i].put(message{src: 0, tag: tagReduce, data: acc})
			}
			out = acc
		} else {
			w.mailboxes[0].put(message{src: r.rank, tag: tagReduce, data: v})
			out = w.mailboxes[r.rank].get(0, tagReduce).data.(float64)
		}
	})
	return out
}

// Alltoall exchanges data[i] to rank i and returns the slice received
// (MPI_Alltoall). data must have length Size().
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Alltoall(data []interface{}) []interface{} {
	if len(data) != r.world.size {
		panic("mpisim: Alltoall data length must equal world size")
	}
	out := make([]interface{}, r.world.size)
	r.intercept(CallAlltoall, func() {
		w := r.world
		for i := 0; i < w.size; i++ {
			if i == r.rank {
				out[i] = data[i]
				continue
			}
			w.mailboxes[i].put(message{src: r.rank, tag: tagAlltoall, data: data[i]})
		}
		for i := 0; i < w.size-1; i++ {
			m := w.mailboxes[r.rank].get(AnySource, tagAlltoall)
			out[m.src] = m.data
		}
	})
	return out
}
