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

// Class names a kind of event. An event is data — a class and a slot —
// and the engine runs it by calling the handler the class's owner
// registered on this engine (Handle) with the slot, which indexes a
// table the owner keeps (Slots). Classes are process-wide (NewClass);
// handlers are per engine, so a fork's owners register their own.
type Class uint8

// The engine's own classes: the zero class marks a cancelled entry; a
// closure event's slot indexes the engine's closures (At), a tick's its
// Periodic table.
const (
	cancelled Class = iota
	closure
	tick
)

// maxClasses bounds the classes of a program.
const maxClasses = 16

// classNames names every class, by number. Written during package
// initialisation only (NewClass).
var classNames = []string{cancelled: "cancelled", closure: "closure", tick: "tick"}

// NewClass registers a class of event under name, which errors quote.
// Call it from a package-level variable declaration.
func NewClass(name string) Class {
	if len(classNames) == maxClasses {
		panic("sim: too many event classes")
	}
	classNames = append(classNames, name)
	return Class(len(classNames) - 1)
}

// event is one queue entry. It is deliberately small (24 bytes): the
// heap sifts copy events by value on the hottest path of the
// simulation, and replays keep millions of them moving. The ID doubles
// as the FIFO tie-break (IDs are unique and ascending per band). The
// entry holds no pointer, so copying the queue copies every pending
// event (Fork).
type event struct {
	t     float64
	id    int64
	class Class
	slot  int32
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
// sift manually. Cancellation marks the inline entry and keeps no side
// table, so cancelling an already-executed or unknown event retains
// nothing — replays that cancel an event per job cannot leak.
type Engine struct {
	now       float64
	queue     []event
	nextID    int64
	nextFront int64
	processed int64
	skipped   int64
	stopped   bool

	// The tables events name: each class's handler on this engine
	// (Handle), the pending closures (class closure) and the chains
	// (class tick). jitter and jitterFrac scale jittered durations
	// (SetJitter).
	handlers   [maxClasses]func(slot int32)
	fns        Slots[func()]
	ticks      Slots[Periodic]
	jitter     *Rand
	jitterFrac float64

	// unchecked is set on a fork until CheckFork passes; owed marks the
	// classes its parent had handlers for (see fork.go).
	unchecked bool
	owed      [maxClasses]bool

	// Progress hook (EveryProcessed): called after every probeEvery-th
	// step (executed or skipped). Kept as a plain callback so sim stays
	// free of observability dependencies; the disabled path pays one nil
	// check per step.
	probeFn    func(now float64, processed, skipped int64)
	probeEvery int64

	// Scratch of one move (skip), meaningless outside it: the members'
	// heap indexes in increasing order, the members in (t, id) order as
	// gathered, and the merge's ring of indexes into group, kept in
	// (t, id) order as the members advance. Fixed arrays, so a move
	// allocates nothing.
	groupIdx [groupCap]int32
	group    [groupCap]member
	ring     [groupCap]uint8

	// Work counts, for tests and measurement only — nothing decides from
	// them: moves made (skip calls that took occurrences), and how many
	// of the skipped occurrences were taken in closed form (stride).
	// Last, so that no field above moves: ahead of the scratch they
	// would shift group's 32-byte members across cache-line boundaries.
	moves, strided int64
}

// NewEngine returns an engine at time 0.
func NewEngine() *Engine {
	e := new(Engine)
	e.Reset()
	return e
}

// Reset returns the engine to what NewEngine made: time 0, no event,
// handler, closure or chain, no jitter stream and no progress hook,
// every count and ID allocator at its start — the next event ID, slot
// and chain it hands out are a new engine's. Only the arrays of the
// queue and of the two tables are kept, emptied. A replay driver
// reuses one engine this way instead of building one per run.
func (e *Engine) Reset() {
	e.fns.Reset()
	e.ticks.Reset()
	*e = Engine{queue: e.queue[:0], nextFront: frontBase, fns: e.fns, ticks: e.ticks}
	e.ticks.Put(Periodic{}) // slot 0: the inert chain no owner gets
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

// Moves returns the number of moves the engine made: steps that took
// armed occurrences by themselves (Skipped counts the occurrences).
//
//simvet:testonly a work count tests and measurements read; nothing decides from it
func (e *Engine) Moves() int64 { return e.moves }

// Strided returns how many of the Skipped occurrences the engine took
// in closed form — past a uniform group's first strideAfter rounds, or
// a two-member plain merge's first strideAfter runs, each a share of
// one integer add — rather than one float add at a time.
//
//simvet:testonly a work count tests and measurements read; nothing decides from it
func (e *Engine) Strided() int64 { return e.strided }

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

// Handle registers fn as the handler of class c on this engine: every
// event of the class runs fn with its slot. Register before posting;
// one owner handles a class per engine.
func (e *Engine) Handle(c Class, fn func(slot int32)) {
	if c <= tick || e.handlers[c] != nil {
		panic(fmt.Sprintf("sim: class %q is the engine's own or handled twice", classNames[c]))
	}
	e.handlers[c] = fn
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
	e.queue = e.queue[:n]
	if n == 0 {
		return top
	}
	// Sift the hole down from the root, then drop last in (siftDown,
	// inlined: this is the hottest path of the simulation).
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

// siftDown moves the entry at i down to its heap position.
func (e *Engine) siftDown(i int) {
	n := len(e.queue)
	ev := e.queue[i]
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		j := l
		if r < n && e.queue[r].less(&e.queue[l]) {
			j = r
		}
		if !e.queue[j].less(&ev) {
			break
		}
		e.queue[i] = e.queue[j]
		i = j
	}
	e.queue[i] = ev
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

// book queues an event of class c for slot at absolute time t under
// the next ID of band (&e.nextID or &e.nextFront), and returns the ID.
func (e *Engine) book(t float64, c Class, slot int32, band *int64) int64 {
	e.checkTime(t)
	*band++
	e.push(event{t: t, id: *band, class: c, slot: slot})
	return *band
}

// Post schedules an event of class c for slot at absolute time t: the
// class's handler on this engine runs it. Scheduling in the past
// panics — it is always a bug in the model.
func (e *Engine) Post(t float64, c Class, slot int32) { e.book(t, c, slot, &e.nextID) }

// PostFront is Post in the front band: at equal times every front-band
// event runs before every regular one, whenever either was scheduled,
// and FIFO among themselves. It is the replay driver's band for
// streamed submissions (workload.Session), so they order as if all had
// been scheduled before the simulation started.
func (e *Engine) PostFront(t float64, c Class, slot int32) { e.book(t, c, slot, &e.nextFront) }

// At schedules fn at absolute time t. Scheduling in the past panics —
// it is always a bug in the model. An engine holding a pending closure
// cannot fork (CheckFork): owners that fork post classes instead.
func (e *Engine) At(t float64, fn func()) EventID {
	return EventID(e.book(t, closure, e.fns.Put(fn), &e.nextID))
}

// After schedules fn delay seconds from now. Negative delays panic.
func (e *Engine) After(delay float64, fn func()) EventID {
	return e.At(e.now+delay, fn)
}

// Cancel removes a scheduled event (a chain's goes through FreeTick).
// Cancelling an already-executed or unknown event is a no-op and
// retains no state. Cancellation is rare (checkpoint stops), so the
// linear queue scan beats keeping an id→event side table updated on
// the hot insert/execute paths.
func (e *Engine) Cancel(id EventID) {
	for i := range e.queue {
		if ev := &e.queue[i]; ev.id == int64(id) {
			if ev.class == closure {
				e.fns.Take(ev.slot)
			}
			ev.class = cancelled
			return
		}
	}
}

// Step takes the next step: it executes the next event, or lets an
// armed Periodic chain at the head of the queue advance by itself (no
// callback runs; see Periodic). It returns false when the queue is
// empty or the engine was stopped. The first step of a fork checks it
// first (CheckFork) and panics with the error.
func (e *Engine) Step() bool {
	e.mustCheck()
	return e.step(math.Inf(1))
}

// step is Step for a caller that has checked the head event is due by
// bound; the engine takes no occurrence later than bound by itself.
//
//simvet:hotpath
func (e *Engine) step(bound float64) bool {
	for len(e.queue) > 0 {
		if e.stopped {
			return false
		}
		if h := &e.queue[0]; h.class == tick {
			if p := e.ticks.At(h.slot); p.credit > 0 && e.skip(p, bound) {
				return true
			}
		}
		ev := e.pop()
		if ev.class == cancelled {
			continue
		}
		e.now = ev.t
		e.processed++
		switch ev.class {
		case closure:
			e.fns.Take(ev.slot)()
		case tick:
			p := e.ticks.At(ev.slot)
			p.id = 0 // the occurrence is no longer pending
			p.owner.Tick()
		default:
			e.handlers[ev.class](ev.slot)
		}
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
	e.mustCheck()
	for len(e.queue) > 0 && !e.stopped {
		// Peek.
		next := &e.queue[0]
		if next.class == cancelled {
			e.pop()
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
