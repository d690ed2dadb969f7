package sim

// Self-rescheduling events. A model whose callback does nothing but
// book itself again one period later — an application iterating at a
// steady pace — costs a pop, a closure call and a push per occurrence
// although nothing is decided. A Periodic handle lets the owner say so:
// after booking the next occurrence it arms the handle with the period
// and the number of occurrences the engine may take by itself, and
// Step, finding such an occurrence at the head of the queue, does to
// the heap exactly what the callback would have done and nothing else.
//
// The contract that makes this exact rather than approximate:
//
//   - Taking an occurrence sets now to its time, draws the next regular
//     ID and re-keys the entry to (now + period, that ID) — the same
//     float add and the same ID After would have produced from inside
//     the callback. The set of pending (time, ID) pairs after every
//     step is therefore the one the executing engine holds, so every
//     later pop — same-instant ties included — resolves identically.
//   - The owner disarms (Disarm) the moment anything its callback
//     reads may have changed. Disarming never moves the pending
//     occurrence: it already sits at the next boundary under the ID the
//     executing engine would have given it, and now runs its callback.
//   - The ID changes with every occurrence taken, so it lives in the
//     handle and nowhere else: cancelling and fork re-binding go
//     through the handle.
//   - A solo chain (ArmSolo) is for an owner that must be able to say
//     afterwards, from times alone, where each occurrence the engine
//     took fell among the events that were executed — a traced
//     application, whose skipped iterations the tracer weaves back
//     between the executed ones. The engine takes a solo occurrence
//     only while it is alone at its instant: strictly earlier than
//     every other pending entry, cancelled ones included, and strictly
//     earlier than the RunUntil bound, at which the caller may book
//     more. Otherwise the occurrence runs its callback with the credit
//     still standing — always legal, it is what a wake does, and the
//     step count, the event IDs and every later pop are the same
//     either way. Everything executed at the instant of a taken solo
//     occurrence therefore ran before it, and nothing in the engine can
//     book for that instant afterwards (a callback runs at a later
//     time; only a caller driving the engine with Step, which has no
//     bound, could — see trace.Tracer for what that case does).

import (
	"fmt"
	"math"
)

// Periodic is the owner-held handle of one event chain: at most one
// occurrence is pending at a time. The zero value is ready to use. A
// handle must not be copied while its occurrence is pending, except
// into a fork (Engine.RebindPeriodic).
type Periodic struct {
	period float64
	// credit is how many occurrences the engine may still take by
	// itself before the callback runs again.
	credit int64
	// id is the pending occurrence's event ID, 0 while none is pending
	// (the engine never issues ID 0).
	id int64
	// solo: the credit was granted by ArmSolo.
	solo bool
}

// AfterPeriodic books the chain's next occurrence: fn runs delay
// seconds from now, exactly as After would schedule it, and the
// handle tracks it. The occurrence starts disarmed.
func (e *Engine) AfterPeriodic(p *Periodic, delay float64, fn func()) {
	if p.id != 0 {
		panic("sim: AfterPeriodic on a handle whose occurrence is still pending")
	}
	t := e.now + delay
	e.checkTime(t)
	e.nextID++
	*p = Periodic{id: e.nextID}
	e.push(event{t: t, id: p.id, fn: fn, p: p})
}

// Arm lets the engine take the pending occurrence and up to credit-1
// following ones by itself, period seconds apart, before the callback
// runs again. The owner calls it only while each of those callbacks
// would do nothing but book the next occurrence period seconds later.
// period must be positive and finite.
func (p *Periodic) Arm(period float64, credit int64) {
	if !(period > 0) || math.IsInf(period, 1) {
		panic(fmt.Sprintf("sim: Arm with period %v", period))
	}
	p.period, p.credit = period, credit
}

// ArmSolo is Arm for a solo chain: the engine takes an occurrence by
// itself only while no other pending entry shares its instant and the
// RunUntil bound lies beyond it, and runs the callback — credit still
// standing — when one does. The callback must therefore cope with
// being run mid-span, as it does after a Disarm.
func (p *Periodic) ArmSolo(period float64, credit int64) {
	p.Arm(period, credit)
	p.solo = true
}

// Credit returns how many occurrences the engine may still take by
// itself.
func (p *Periodic) Credit() int64 { return p.credit }

// Disarm withdraws the remaining credit and returns it: the pending
// occurrence stays where it is and runs its callback.
func (p *Periodic) Disarm() int64 {
	left := p.credit
	p.credit = 0
	return left
}

// Pending reports whether an occurrence is scheduled.
func (p *Periodic) Pending() bool { return p.id != 0 }

// CancelPeriodic cancels the chain's pending occurrence, if any.
func (e *Engine) CancelPeriodic(p *Periodic) {
	if p.id != 0 {
		e.Cancel(EventID(p.id))
		*p = Periodic{}
	}
}

// skip takes the armed occurrence at the head of the queue without
// executing it and, while the chain's following occurrence would again
// be the head — strictly earlier than every other pending event, so no
// tie is involved — and is due by bound, takes that one too. The entry
// is re-keyed in place and sifted down once: no pop, no push, no call.
// It reports false, having done nothing, when the chain is solo and its
// head occurrence is not alone at its instant: step executes it.
func (e *Engine) skip(p *Periodic, bound float64) bool {
	// The earliest other pending event is a child of the root.
	other := math.Inf(1)
	if len(e.queue) > 1 {
		other = e.queue[1].t
		if len(e.queue) > 2 && e.queue[2].t < other {
			other = e.queue[2].t
		}
	}
	root := &e.queue[0]
	t := root.t
	if p.solo {
		// Alone at its instant or not at all: the bound turns exclusive.
		bound = math.Nextafter(bound, math.Inf(-1))
		if !(t < other) || t > bound {
			return false
		}
	}
	limit := p.credit
	if e.probeFn != nil {
		// Stop on the heartbeat's step so it fires at the virtual time
		// it always did.
		if room := e.probeEvery - (e.processed+e.skipped)%e.probeEvery; room < limit {
			limit = room
		}
	}
	var n int64
	for {
		e.now = t
		n++
		t = e.now + p.period
		if n == limit || !(t < other) || t > bound {
			break
		}
	}
	p.credit -= n
	e.skipped += n
	e.nextID += n
	p.id = e.nextID
	root.t, root.id = t, p.id
	e.siftDown(0)
	if e.probeFn != nil {
		e.heartbeat()
	}
	return true
}

// RebindPeriodic is Rebind for a chain's pending occurrence: p is the
// fork's own handle, holding a copy of the parent handle's state, and
// the forked occurrence is bound to it and to fn.
func (e *Engine) RebindPeriodic(p *Periodic, fn func()) error {
	if err := e.Rebind(EventID(p.id), fn); err != nil {
		return err
	}
	e.queue[e.rebind[p.id]].p = p
	return nil
}
