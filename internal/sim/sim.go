// Package sim is a minimal discrete-event simulation engine with
// virtual time in seconds. The cluster evaluation (§6) runs on it:
// application models advance iteration by iteration, and every
// scheduling or malleability action executes through the real DROM
// code — only durations are virtual.
package sim

import (
	"fmt"
	"math"
)

// EventID identifies a scheduled event for cancellation.
type EventID int64

// frontBase seeds the front-band ID space: front-band IDs ascend from
// here and stay far below every regular ID, so at equal times the
// whole front band orders before the regular band while remaining
// FIFO within itself.
const frontBase = math.MinInt64 / 2

// event is one queue entry. It is deliberately small (32 bytes): the
// heap sifts copy events by value on the hottest path of the
// simulation, and replays keep millions of them moving. The ID doubles
// as the FIFO tie-break (IDs are unique and ascending per band), and a
// nil fn marks a cancelled entry — no separate flag, no side table. p
// is non-nil on the occurrence of a self-rescheduling chain (see
// Periodic); a cancelled entry carries none.
type event struct {
	t  float64
	id int64
	fn func()
	p  *Periodic
}

// less orders events by time, then ID. (t, id) is a total order — IDs
// are unique — so the pop sequence is fully deterministic.
func (e *event) less(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.id < o.id
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use: all events run on the caller of Run/Step.
//
// The queue is a value-based binary heap: events live inline in the
// slice (no per-event allocation, no interface boxing) and hot paths
// sift manually. Cancellation nils the inline closure and keeps no
// side table, so cancelling an already-executed or unknown event
// retains nothing — replays that cancel an event per job cannot leak.
type Engine struct {
	now       float64
	queue     []event
	nextID    int64
	nextFront int64
	processed int64
	skipped   int64
	stopped   bool

	// Progress hook (EveryProcessed): called after every probeEvery-th
	// step (executed or skipped). Kept as a plain callback so sim stays
	// free of observability dependencies; the disabled path pays one nil
	// check per step.
	probeFn    func(now float64, processed, skipped int64)
	probeEvery int64

	// rebind maps event ID → queue index during a Fork/FinishFork
	// window (nil otherwise); see fork.go.
	rebind map[int64]int

	// Scratch of one group move (skip), meaningless outside it: the
	// members' heap indexes in increasing order, and the members in
	// round-robin order. Fixed arrays, so a move allocates nothing and a
	// fork copies nothing.
	groupIdx [groupCap]int32
	group    [groupCap]member
}

// NewEngine returns an engine at time 0.
func NewEngine() *Engine {
	return &Engine{nextFront: frontBase}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events executed: callbacks run.
func (e *Engine) Processed() int64 { return e.processed }

// Skipped returns the number of occurrences of armed Periodic chains
// the engine took by itself, without a callback. Processed + Skipped
// is the step count: what Processed would read had no chain ever been
// armed.
func (e *Engine) Skipped() int64 { return e.skipped }

// Pending returns the number of events still queued (including
// cancelled ones not yet discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// EveryProcessed installs a progress hook: fn runs after every
// every-th step — executed and skipped occurrences both count, so the
// hook keeps its virtual-time spacing however many steps the engine
// takes by itself — with the engine's current virtual time and both
// counts. One hook is supported (nil uninstalls); fn must not re-enter
// the engine. Drivers use it as a heartbeat for observability
// consumers between scheduling cycles.
func (e *Engine) EveryProcessed(every int64, fn func(now float64, processed, skipped int64)) {
	if every <= 0 {
		every = 1
	}
	e.probeEvery = every
	e.probeFn = fn
}

// push appends ev and sifts it up (moving a hole instead of swapping
// halves the copies on the hottest path of the simulation).
func (e *Engine) push(ev event) {
	e.queue = append(e.queue, event{})
	j := len(e.queue) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !ev.less(&e.queue[i]) {
			break
		}
		e.queue[j] = e.queue[i]
		j = i
	}
	e.queue[j] = ev
}

// pop removes and returns the minimum event.
func (e *Engine) pop() event {
	top := e.queue[0]
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = event{} // release the closure
	e.queue = e.queue[:n]
	if n == 0 {
		return top
	}
	// Sift the hole down from the root, then drop last in.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		j := l
		if r < n && e.queue[r].less(&e.queue[l]) {
			j = r
		}
		if !e.queue[j].less(&last) {
			break
		}
		e.queue[i] = e.queue[j]
		i = j
	}
	e.queue[i] = last
	return top
}

// checkTime rejects invalid or past event times — always a bug in the
// model.
func (e *Engine) checkTime(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %.9f before now %.9f", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: invalid event time %v", t))
	}
}

// At schedules fn at absolute time t. Scheduling in the past panics —
// it is always a bug in the model.
func (e *Engine) At(t float64, fn func()) EventID {
	e.checkTime(t)
	e.nextID++
	id := e.nextID
	e.push(event{t: t, id: id, fn: fn})
	return EventID(id)
}

// AtFront schedules fn at absolute time t in the front band: among
// events with the same time, front-band events execute before every
// regular event regardless of scheduling order, and FIFO among
// themselves. It is the replay driver's band (workload.Session): job
// submissions are streamed one pending event at a time, and
// "submissions first on a same-instant tie" is the single ordering
// rule — exactly the order scheduling every submission before the
// simulation started would give.
func (e *Engine) AtFront(t float64, fn func()) EventID {
	e.checkTime(t)
	e.nextFront++
	id := e.nextFront
	e.push(event{t: t, id: id, fn: fn})
	return EventID(id)
}

// After schedules fn delay seconds from now. Negative delays panic.
func (e *Engine) After(delay float64, fn func()) EventID {
	return e.At(e.now+delay, fn)
}

// Cancel removes a scheduled event. Cancelling an already-executed or
// unknown event is a no-op and retains no state. Cancellation is rare
// (checkpoint stops, scancel), so the linear queue scan beats keeping
// an id→event side table updated on the hot insert/execute paths.
func (e *Engine) Cancel(id EventID) {
	for i := range e.queue {
		if e.queue[i].id == int64(id) {
			// Cancelled; release the closure and the handle now.
			e.queue[i].fn, e.queue[i].p = nil, nil
			return
		}
	}
}

// Step takes the next step: it executes the next event, or lets an
// armed Periodic chain at the head of the queue advance by itself (no
// callback runs; see Periodic). It returns false when the queue is
// empty or the engine was stopped.
func (e *Engine) Step() bool { return e.step(math.Inf(1)) }

// step is Step for a caller that has checked the head event is due by
// bound; the engine takes no occurrence later than bound by itself.
//
//simvet:hotpath
func (e *Engine) step(bound float64) bool {
	for len(e.queue) > 0 {
		if e.stopped {
			return false
		}
		if p := e.queue[0].p; p != nil && p.credit > 0 && e.skip(p, bound) {
			return true
		}
		ev := e.pop()
		if ev.fn == nil {
			continue // cancelled
		}
		e.now = ev.t
		e.processed++
		if ev.p != nil {
			ev.p.id = 0 // the occurrence is no longer pending
		}
		ev.fn()
		if e.probeFn != nil {
			e.heartbeat()
		}
		return true
	}
	return false
}

// heartbeat fires the progress hook on every probeEvery-th step.
func (e *Engine) heartbeat() {
	if (e.processed+e.skipped)%e.probeEvery == 0 {
		e.probeFn(e.now, e.processed, e.skipped)
	}
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to
// t (if it is in the future).
func (e *Engine) RunUntil(t float64) {
	for len(e.queue) > 0 && !e.stopped {
		// Peek.
		next := &e.queue[0]
		if next.fn == nil {
			e.pop() // cancelled
			continue
		}
		if next.t > t {
			break
		}
		e.step(t)
	}
	if t > e.now {
		e.now = t
	}
}

// Stop halts Run/RunUntil after the current event.
func (e *Engine) Stop() { e.stopped = true }
