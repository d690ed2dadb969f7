package sim

// Self-rescheduling events. A model whose callback does nothing but
// book itself again one period later — an application iterating at a
// steady pace — costs a pop, a closure call and a push per occurrence
// although nothing is decided. A chain — an engine-owned Periodic
// entry whose occurrences run the owner's Tick — lets the owner say
// so: after booking the next occurrence (AfterTick) it arms the chain
// with the period and the number of occurrences the engine may take by
// itself, and Step, finding such an occurrence at the head of the
// queue, does to the heap exactly what the callback would have done
// and nothing else.
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
//     chain's table entry and nowhere else: cancelling goes through the
//     slot (FreeTick), and the heap entry names the slot, not the ID.
//   - Armed chains of one period move as a group. Take k armed, plain
//     (neither solo nor jittered) chains with a bit-equal period P
//     whose pending times, sorted by (t, id), are t_0 ≤ … ≤ t_{k-1} ≤
//     fl(t_0 + P). The executing engine pops them strictly round-robin
//     for as long as each occurrence is strictly earlier than every
//     other entry:
//     popping member 0 re-keys it to (fl(t_0 + P), an ID above every
//     pending one), which sorts after member k-1 — fl(x + P) is
//     monotone in x, so fl(t_0 + P) ≤ fl(t_1 + P) keeps the invariant
//     for the rotated list, and a tie that rounding creates resolves by
//     ID in that same cyclic order. So the q-th occurrence a move takes
//     (q = r·k + j, from 0) is member j's after r adds of its own, and
//     is re-keyed under nextID + q + 1. The engine therefore takes the
//     group's occurrences in that order — each member's time by its own
//     repeated add, never r·P — up to the first whose member has no
//     credit left, that is not strictly earlier than the earliest
//     non-member entry (cancelled ones included), or that lies past the
//     RunUntil bound, and up to the heartbeat's step. Which qualifying
//     entries join is free: one left out is a non-member and only
//     bounds the move sooner.
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
//   - A jittered chain (ArmJitter) is one whose callback would book the
//     next occurrence Jitter(period) on, drawing one value from the
//     engine's stream (SetJitter), which only such callbacks draw from
//     and which a fork continues. The engine
//     takes its occurrences in the executing engine's pop order — that
//     is the contract above — and draws each one's factor at the moment
//     it takes it, so the same values are drawn in the same order and
//     added to the same now: every (t, id) key follows as before, and so
//     does the stream's position. Its times are no repeated add, so a
//     jittered chain never joins a group and moves alone (k = 1), under
//     the same credit, heartbeat and cut limits as a group.

import (
	"fmt"
	"math"
)

// Ticker is the owner of a chain: Tick runs when one of the chain's
// occurrences executes.
type Ticker interface{ Tick() }

// Periodic is the state of one event chain, held in the engine's table
// (AfterTick): at most one occurrence is pending at a time, and the
// event carries only the chain's slot, so a fork copies the chain with
// the table and each forked owner takes it over (TakeTick).
type Periodic struct {
	period float64
	// credit is how many occurrences the engine may still take by
	// itself before the callback runs again.
	credit int64
	// id is the pending occurrence's event ID, 0 while none is pending
	// (the engine never issues ID 0).
	id int64
	// solo, jitter: the credit was granted by ArmSolo, ArmJitter.
	solo, jitter bool
	owner        Ticker
}

// AfterTick books the next occurrence of the chain in *slot delay
// seconds from now, exactly as After would schedule it; the occurrence
// starts disarmed. A *slot of 0 names no chain — slot 0 holds an inert
// one no owner gets — so AfterTick first takes a new chain for owner
// and stores its slot in *slot.
func (e *Engine) AfterTick(slot *int32, owner Ticker, delay float64) {
	if *slot == 0 {
		*slot = e.ticks.Put(Periodic{owner: owner})
	}
	p := e.ticks.At(*slot)
	if p.id != 0 {
		panic("sim: AfterTick on a chain whose occurrence is still pending")
	}
	*p = Periodic{id: e.book(e.now+delay, tick, *slot, &e.nextID), owner: p.owner}
}

// FreeTick cancels the pending occurrence of the chain in *slot, if
// any, releases the chain and sets *slot to 0; a no-op on 0.
func (e *Engine) FreeTick(slot *int32) {
	if *slot == 0 {
		return
	}
	if id := e.ticks.Take(*slot).id; id != 0 {
		e.Cancel(EventID(id))
	}
	*slot = 0
}

// TakeTick makes owner the owner of the chain in slot on this engine:
// a forked owner takes over each chain its parent owned.
func (e *Engine) TakeTick(slot int32, owner Ticker) { e.ticks.At(slot).owner = owner }

// Periodic returns the chain in slot, for arming and reading its
// credit. The pointer is valid until the next AfterTick.
func (e *Engine) Periodic(slot int32) *Periodic { return e.ticks.At(slot) }

// SetJitter makes the engine jitter durations: Jitter scales each by a
// factor r.Jitter draws from [1-frac, 1+frac), for an owner's executed
// step and for each occurrence of a chain armed with ArmJitter alike.
// frac must lie in (0, 1), so that every factor is positive. A fork
// continues the stream (Rand.Fork).
func (e *Engine) SetJitter(r *Rand, frac float64) {
	if !(frac > 0 && frac < 1) || r == nil {
		panic(fmt.Sprintf("sim: SetJitter with fraction %v, stream %p", frac, r))
	}
	e.jitter, e.jitterFrac = r, frac
}

// Jittered reports whether the engine jitters durations (SetJitter).
func (e *Engine) Jittered() bool { return e.jitter != nil }

// Jitter draws the next factor from the engine's stream and returns d
// scaled by it.
func (e *Engine) Jitter(d float64) float64 { return e.jitter.Jitter(d, e.jitterFrac) }

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

// ArmJitter is Arm for a jittered chain on a jittered engine: each
// occurrence the engine takes books the next Jitter(period) seconds on,
// drawing from the engine's stream as it takes it. The owner calls it
// only while each of those callbacks would do nothing but book the
// next occurrence that way, and while nothing but such callbacks draws
// from the stream.
func (p *Periodic) ArmJitter(period float64, credit int64) {
	p.Arm(period, credit)
	p.jitter = true
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

// groupCap bounds the members of one group move. An entry that would
// qualify beyond it stays out and bounds the move like any other
// non-member: the move stays exact, only shorter.
const groupCap = 16

// member is one chain of a group move: where its entry sits in the heap
// and the key and credit it has reached.
type member struct {
	i    int32
	t    float64
	id   int64
	left int64
}

// skip takes the armed occurrence p at the head of the queue without
// executing it, and with it every following occurrence the executing
// engine would have popped next, as long as each is that of an armed
// group member. The group is the head's chain plus every armed, plain
// (neither solo nor jittered) pending entry with the same period due by
// fl(t_head + period), found by walking down from the root through
// members only.
// Its members are popped strictly round-robin (see the contract at the
// top of this file), so the move advances each by its own repeated add
// and hands out IDs in that order, then re-keys the entries in place
// and sifts them down: no pop, no push, no call. The move stops before
// the first occurrence whose member's credit is spent, that is not
// strictly earlier than the earliest non-member entry, or that lies
// past bound, and after the heartbeat's step. A solo chain moves alone,
// and skip reports false, having done nothing, when its head occurrence
// is not alone at its instant: step executes it. A jittered chain moves
// alone too, each occurrence re-keyed by its own draw.
func (e *Engine) skip(p *Periodic, bound float64) bool {
	head := &e.queue[0]
	period := p.period
	reach := math.Inf(-1) // a solo or jittered chain admits no member
	if !p.solo && !p.jitter {
		reach = head.t + period
	}
	// Gather the members breadth-first — in increasing heap index — and
	// take the earliest non-member off the frontier: every other entry
	// lies below a frontier entry, so no later. An entry no earlier than
	// a non-member already seen could never be taken: it stays out.
	e.groupIdx[0] = 0
	k, other := 1, math.Inf(1)
	for g := 0; g < k; g++ {
		for c := 2*int(e.groupIdx[g]) + 1; c <= 2*int(e.groupIdx[g])+2 && c < len(e.queue); c++ {
			ev := &e.queue[c]
			if ev.t <= reach && ev.t < other && k < groupCap && ev.class == tick && e.joins(ev.slot, period) {
				e.groupIdx[k] = int32(c)
				k++
			} else if ev.t < other {
				other = ev.t
			}
		}
	}
	// An occurrence is taken only while strictly earlier than cut: the
	// earliest non-member, and the bound, inclusive for a group but not
	// for a solo chain, which moves only while alone at its instant.
	cut := other
	if bound < cut {
		cut = bound
		if !p.solo {
			cut = math.Nextafter(bound, math.Inf(1))
		}
	}
	if p.solo && !(head.t < cut) {
		return false
	}
	// Order the members by (t, id): the round-robin order.
	for g := 0; g < k; g++ {
		ev := &e.queue[e.groupIdx[g]]
		m := member{i: e.groupIdx[g], t: ev.t, id: ev.id, left: e.ticks.At(ev.slot).credit}
		j := g
		for ; j > 0 && (m.t < e.group[j-1].t || m.t == e.group[j-1].t && m.id < e.group[j-1].id); j-- {
			e.group[j] = e.group[j-1]
		}
		e.group[j] = m
	}
	// Stopping a move early is always exact — the next step goes on —
	// so capping its length keeps left·k + j below overflow.
	limit := int64(math.MaxInt64 / groupCap)
	if e.probeFn != nil {
		// Stop on the heartbeat's step so it fires at the virtual time
		// it always did.
		limit = min(limit, e.probeEvery-(e.processed+e.skipped)%e.probeEvery)
	}
	kk := int64(k)
	for j := range kk {
		// The q-th occurrence taken (q = r·k + j, from 0) is member j's:
		// its credit is spent at q = left·k + j.
		if left := e.group[j].left; left <= limit && left*kk+j < limit {
			limit = left*kk + j
		}
	}
	// Take occurrences round-robin, t being the next one's time; at the
	// end, members before next took rounds+1 of them, the others rounds.
	var n, rounds int64
	next, t, now := 0, e.group[0].t, e.now
	if p.jitter {
		// k = 1: draw each occurrence's factor as it is taken.
		for {
			now, t = t, t+e.Jitter(period)
			n++
			if n == limit || !(t < cut) {
				break
			}
		}
		e.group[0].t, rounds = t, n
	} else {
		for {
			now, t = t, t+period
			e.group[next].t = t
			n++
			if next++; next == k {
				next, rounds = 0, rounds+1
			}
			if k > 1 {
				t = e.group[next].t // else the time just stored, kept in a register
			}
			if n == limit || !(t < cut) {
				break
			}
		}
	}
	e.now = now
	for j := range kk {
		taken := rounds
		if j < int64(next) {
			taken++
		}
		if taken == 0 {
			continue
		}
		m := &e.group[j]
		ev := &e.queue[m.i]
		ev.t, ev.id = m.t, e.nextID+(taken-1)*kk+j+1
		q := e.ticks.At(ev.slot)
		q.id, q.credit = ev.id, m.left-taken
	}
	// Keys only grew, and the members form a subtree holding the root:
	// sifting them bottom-up restores the heap, as heapify would. A member
	// that took nothing kept its key (an ID no later than nextID), and
	// its sift would be a no-op.
	for g := k - 1; g >= 0; g-- {
		if i := int(e.groupIdx[g]); e.queue[i].id > e.nextID {
			e.siftDown(i)
		}
	}
	e.skipped += n
	e.nextID += n
	if e.probeFn != nil {
		e.heartbeat()
	}
	return true
}

// joins reports whether the chain in slot may join a group move of
// period: armed, plain (neither solo nor jittered), of a bit-equal
// period.
func (e *Engine) joins(slot int32, period float64) bool {
	q := e.ticks.At(slot)
	return q.credit > 0 && !q.solo && !q.jitter && q.period == period
}
