// Package ompss implements an OmpSs-like task-based runtime (§4.2):
// tasks with data dependencies executed by a resizable worker pool.
// Like BSC's Nanos runtime, it has native DLB support — when a DLB
// process is attached, every task boundary is a malleability point, so
// DROM mask changes take effect with task granularity (finer than the
// OpenMP runtime's region granularity).
package ompss

import (
	"fmt"
	"sync"

	"repro/dlb"
)

// AccessMode describes how a task accesses a dependency object.
type AccessMode int

const (
	// In declares a read-only access (depend(in:)).
	In AccessMode = iota
	// Out declares a write-only access (depend(out:)).
	Out
	// InOut declares a read-write access (depend(inout:)).
	InOut
)

func (m AccessMode) reads() bool  { return m == In || m == InOut }
func (m AccessMode) writes() bool { return m == Out || m == InOut }

// Dep names a dependency object and the access mode.
type Dep struct {
	Name string
	Mode AccessMode
}

// task is a scheduled unit of work.
type task struct {
	fn        func()
	priority  int
	seq       int64
	waitCount int
	succs     []*task
	done      bool
}

// depNode tracks the last writer and the readers-since-last-write of
// one dependency object.
type depNode struct {
	lastWriter *task
	readers    []*task
}

// Runtime is an OmpSs-like runtime instance.
type Runtime struct {
	mu   sync.Mutex
	cond *sync.Cond

	ready   readyQueue
	pending int
	taskSeq int64
	deps    map[string]*depNode

	workersWanted int
	activeIDs     map[int]bool
	shutdown      bool

	proc *dlb.Process
}

// New creates a runtime with the given number of workers.
func New(workers int) *Runtime {
	if workers < 1 {
		workers = 1
	}
	rt := &Runtime{
		deps:          make(map[string]*depNode),
		workersWanted: workers,
		activeIDs:     make(map[int]bool),
	}
	rt.cond = sync.NewCond(&rt.mu)
	rt.mu.Lock()
	rt.spawnLocked()
	rt.mu.Unlock()
	return rt
}

// AttachDLB wires a DLB process: mask changes resize the worker pool,
// and workers poll DROM between tasks.
func AttachDLB(rt *Runtime, proc *dlb.Process) {
	proc.OnResize(rt.SetNumWorkers, nil)
	rt.mu.Lock()
	rt.proc = proc
	rt.mu.Unlock()
}

// SetNumWorkers resizes the worker pool. Growth spawns workers
// immediately; shrink takes effect as soon as excess workers finish
// their current task (threads are never interrupted mid-task).
func (rt *Runtime) SetNumWorkers(n int) {
	if n < 1 {
		n = 1
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.workersWanted = n
	rt.spawnLocked()
	rt.cond.Broadcast()
}

// NumWorkers returns the target worker count.
func (rt *Runtime) NumWorkers() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.workersWanted
}

// ActiveWorkers returns how many workers currently exist (may lag the
// target while excess workers finish tasks).
func (rt *Runtime) ActiveWorkers() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.activeIDs)
}

// spawnLocked tops the pool up to workersWanted. Caller holds rt.mu.
func (rt *Runtime) spawnLocked() {
	if rt.shutdown {
		return
	}
	for id := 0; id < rt.workersWanted; id++ {
		if !rt.activeIDs[id] {
			rt.activeIDs[id] = true
			go rt.worker(id)
		}
	}
}

// Submit schedules fn with the given dependencies (#pragma omp task
// depend(...)). Dependency semantics: a reader waits for the previous
// writer; a writer waits for the previous writer and all readers since.
func (rt *Runtime) Submit(fn func(), deps ...Dep) {
	rt.SubmitPriority(fn, 0, deps...)
}

// SubmitPriority is Submit with an OmpSs-style priority clause: among
// ready tasks, higher priorities run first (FIFO within a priority).
// Priorities are hints — they never override dependencies.
func (rt *Runtime) SubmitPriority(fn func(), priority int, deps ...Dep) {
	t := &task{fn: fn, priority: priority}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.taskSeq++
	t.seq = rt.taskSeq
	if rt.shutdown {
		panic("ompss: Submit after Shutdown")
	}
	rt.pending++
	for _, d := range deps {
		node := rt.deps[d.Name]
		if node == nil {
			node = &depNode{}
			rt.deps[d.Name] = node
		}
		addEdge := func(pred *task) {
			if pred == nil || pred.done || pred == t {
				return
			}
			pred.succs = append(pred.succs, t)
			t.waitCount++
		}
		if d.Mode.reads() {
			addEdge(node.lastWriter)
		}
		if d.Mode.writes() {
			addEdge(node.lastWriter)
			for _, r := range node.readers {
				addEdge(r)
			}
			node.lastWriter = t
			node.readers = nil
		} else {
			node.readers = append(node.readers, t)
		}
	}
	if t.waitCount == 0 {
		rt.ready.push(t)
		rt.cond.Signal()
	}
}

// readyQueue orders runnable tasks by (priority desc, seq asc).
// Linear insertion keeps it simple; queues stay short because workers
// drain eagerly.
type readyQueue []*task

func (q *readyQueue) push(t *task) {
	i := len(*q)
	for i > 0 {
		p := (*q)[i-1]
		if p.priority > t.priority || (p.priority == t.priority && p.seq < t.seq) {
			break
		}
		i--
	}
	*q = append(*q, nil)
	copy((*q)[i+1:], (*q)[i:])
	(*q)[i] = t
}

func (q *readyQueue) pop() *task {
	t := (*q)[0]
	*q = (*q)[1:]
	return t
}

// worker is the body of one pool thread.
func (rt *Runtime) worker(id int) {
	for {
		rt.mu.Lock()
		for {
			if rt.shutdown || id >= rt.workersWanted {
				delete(rt.activeIDs, id)
				rt.cond.Broadcast()
				rt.mu.Unlock()
				return
			}
			if len(rt.ready) > 0 {
				break
			}
			rt.cond.Wait()
		}
		t := rt.ready.pop()
		proc := rt.proc
		rt.mu.Unlock()

		t.fn()

		rt.mu.Lock()
		t.done = true
		for _, s := range t.succs {
			s.waitCount--
			if s.waitCount == 0 {
				rt.ready.push(s)
				rt.cond.Signal()
			}
		}
		rt.pending--
		if rt.pending == 0 {
			rt.cond.Broadcast()
		}
		rt.mu.Unlock()

		// Task boundary = DLB malleability point (§4.2). PollDROM may
		// call back into SetNumWorkers; do it outside the lock.
		if proc != nil {
			proc.PollDROM()
		}
	}
}

// TaskWait blocks until every submitted task has completed
// (#pragma omp taskwait).
func (rt *Runtime) TaskWait() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for rt.pending > 0 {
		rt.cond.Wait()
	}
	// A taskwait is a natural dependency barrier: later tasks cannot
	// conflict with completed ones, so drop the graph bookkeeping.
	rt.deps = make(map[string]*depNode)
}

// Shutdown waits for completion and stops all workers. The runtime
// cannot be reused afterwards.
func (rt *Runtime) Shutdown() {
	rt.TaskWait()
	rt.mu.Lock()
	rt.shutdown = true
	rt.cond.Broadcast()
	for len(rt.activeIDs) > 0 {
		rt.cond.Wait()
	}
	rt.mu.Unlock()
}

func (rt *Runtime) String() string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return fmt.Sprintf("ompss.Runtime(workers=%d active=%d pending=%d)",
		rt.workersWanted, len(rt.activeIDs), rt.pending)
}
