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
//   - Armed chains move together, in the executing engine's pop order.
//     Take armed, non-solo chains whose pending occurrences are strictly
//     earlier than every other entry. The executing engine pops their
//     occurrences by (t, id), and re-keys each under an ID above every
//     pending one, which sorts after every entry at its new time. So a
//     move is a merge over (t, id) of its members' chains, of any
//     period, plain or jittered: the earliest member takes occurrences,
//     each by its own add or draw, while the next one stays strictly earlier
//     than the second member's pending time, then goes back among the
//     others behind every member at its time; the q-th occurrence the
//     move takes (from 0) is re-keyed under nextID + q + 1. The move
//     stops before the first occurrence whose member has no credit left,
//     that is not strictly earlier than the earliest non-member entry
//     (cancelled ones included), or that lies past the RunUntil bound,
//     and after the heartbeat's step. Which qualifying entries join is
//     free: one left out is a non-member and only bounds the move sooner.
//   - A uniform group — plain chains of a bit-equal period P whose
//     pending times, sorted by (t, id), are t_0 ≤ … ≤ t_{k-1} ≤
//     fl(t_0 + P) — merges strictly round-robin: popping member 0
//     re-keys it to (fl(t_0 + P), an ID above every pending one), which
//     sorts after member k-1 — fl(x + P) is monotone in x, so fl(t_0 +
//     P) ≤ fl(t_1 + P) keeps the invariant for the rotated list, and a
//     tie that rounding creates resolves by ID in that same cyclic
//     order. So the q-th occurrence (q = r·k + j) is member j's after r
//     adds of its own, and the move takes them without comparing times.
//   - A plain run is arithmetic, bit for bit. Every float of a binade
//     [2^52·u, 2^53·u) is a multiple of its ulp u, so while the exact
//     sum stays in the binade, fl(t + P) = t + Q·u with Q = P/u rounded
//     to nearest, unless P/u ends in exactly one half (a tie, which
//     rounds by the parity of t/u); k adds are then the one integer add
//     t/u + k·Q. Past a uniform group's first strideAfter whole rounds,
//     the move takes the rest that way (stride), with one real add
//     across each binade edge and for a tie. Its times never decrease in
//     pop order, so the occurrences strictly earlier than cut are a
//     prefix of the rest, and each member's own count of them is its
//     share. Times, IDs and credits come out as the adds would leave
//     them. A merge's runs end at the next member's time, a few
//     occurrences in, so it adds one occurrence at a time — but a merge
//     of two plain members takes what is left after strideAfter runs in
//     closed form too (mergeStride): each member's times are its own
//     adds, so stride counts each one's occurrences strictly earlier than
//     the move's end — cut, or the next occurrence of a member whose
//     credit that spends — and the IDs follow from where the two last
//     ones fall: the later is the move's last, and the earlier comes
//     after its own others and the later member's strictly earlier ones.
//     A tie at the earlier last, which only IDs order, and a heartbeat
//     inside the rest leave the move to the loop, and so do merges of
//     more members.
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
//     and which a fork continues. It joins a move like a plain chain:
//     the merge takes occurrences in pop order and draws each one's
//     factor at the moment it takes it, so the same values are drawn in
//     the same order and added to the same now: every (t, id) key
//     follows as before, and so does the stream's position.

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

// groupCap bounds the members of one move. An entry that would qualify
// beyond it stays out and bounds the move like any other non-member:
// the move stays exact, only shorter. A power of two, so the merge's
// ring of members wraps with a mask.
const groupCap = 16

// member is one chain of a move: where its entry sits in the heap and
// the key and credit it has reached; its period and jitter stay in its
// Periodic. It fits in 32 bytes: the compiler copies such a value field
// by field through registers, where a wider one goes through memory and
// stalls on reading back the field stores that just built it.
type member struct {
	i    int32
	t    float64
	id   int64
	left int64
}

// skip takes the armed occurrence p at the head of the queue without
// executing it, and with it every following occurrence the executing
// engine would have popped next, as long as each is that of an armed
// member of the move (see the contract at the top of this file). The
// members are the head's chain plus every armed, non-solo pending entry
// due by fl(t_head + period) — a reach that only bounds the gather's
// work — found by walking down from the root through members only. The
// move merges their occurrences over (t, id), or, for a uniform group,
// takes them round-robin; then it re-keys the entries in place and
// sifts them down: no pop, no push, no call. A solo chain moves alone,
// and skip reports false, having done nothing, when its head occurrence
// is not alone at its instant: step executes it.
func (e *Engine) skip(p *Periodic, bound float64) bool {
	head := &e.queue[0]
	period := p.period
	reach := math.Inf(-1) // a solo chain admits no member
	if !p.solo {
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
			if ev.t <= reach && ev.t < other && k < groupCap && ev.class == tick && e.joins(ev.slot) {
				e.groupIdx[k] = int32(c)
				k++
			} else if ev.t < other {
				other = ev.t
			}
		}
	}
	// An occurrence is taken only while strictly earlier than cut: the
	// earliest non-member, and the bound, inclusive for a move but not
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
	// Order the members by (t, id), the head first: it is taken whatever
	// cut says, being the least entry. A member at or past cut can never
	// be taken and gets no record. The group is uniform if every member
	// is plain and of the head's period, bit for bit.
	n, uniform := 0, !p.jitter
	for g := 0; g < k; g++ {
		ev := &e.queue[e.groupIdx[g]]
		if g > 0 && !(ev.t < cut) {
			continue
		}
		q := e.ticks.At(ev.slot)
		m := member{i: e.groupIdx[g], t: ev.t, id: ev.id, left: q.credit}
		uniform = uniform && !q.jitter && q.period == period
		j := n
		for ; j > 0 && (m.t < e.group[j-1].t || m.t == e.group[j-1].t && m.id < e.group[j-1].id); j-- {
			e.group[j] = e.group[j-1]
		}
		e.group[j] = m
		n++
	}
	// Stopping a move early is always exact — the next step goes on —
	// so capping its length keeps left·n + j below overflow.
	limit := int64(math.MaxInt64 / groupCap)
	if e.probeFn != nil {
		// Stop on the heartbeat's step so it fires at the virtual time
		// it always did.
		limit = min(limit, e.probeEvery-(e.processed+e.skipped)%e.probeEvery)
	}
	var taken int64
	if uniform {
		taken = e.roundRobin(n, period, cut, limit)
	} else {
		taken = e.merge(n, cut, limit)
	}
	for j := range n {
		m := &e.group[j]
		if m.id <= e.nextID {
			continue // took nothing
		}
		ev := &e.queue[m.i]
		ev.t, ev.id = m.t, m.id
		q := e.ticks.At(ev.slot)
		q.id, q.credit = m.id, m.left
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
	e.moves++
	e.skipped += taken
	e.nextID += taken
	if e.probeFn != nil {
		e.heartbeat()
	}
	return true
}

// roundRobin takes the occurrences of a uniform group of k members,
// ordered by (t, id), strictly round-robin, and leaves each member's
// key and credit in e.group and e.now at the last one's time; it
// returns how many it took, at most limit. The first strideAfter
// rounds go one add at a time, the rest in closed form (strideRounds).
func (e *Engine) roundRobin(k int, period, cut float64, limit int64) int64 {
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
	end := min(limit, strideAfter*kk)
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
		if n == end || !(t < cut) {
			break
		}
	}
	if n < limit && n == end && t < cut { // strideAfter whole rounds taken
		var taken int64
		now, taken = e.strideRounds(k, period, cut, limit-n)
		n += taken
		next, rounds = int(taken%kk), rounds+taken/kk
	}
	e.now = now
	for j := range kk {
		taken := rounds
		if j < int64(next) {
			taken++
		}
		if taken > 0 {
			m := &e.group[j]
			m.id, m.left = e.nextID+(taken-1)*kk+j+1, m.left-taken
		}
	}
	return n
}

// strideRounds takes the rest of a round-robin move in closed form, at
// a round boundary with member 0's next occurrence strictly earlier
// than cut: up to limit more occurrences, as roundRobin's loop would.
// It leaves each member's time in e.group and returns the last taken
// occurrence's time and how many it took. The loop's times never
// decrease from one occurrence to the next (see the contract), so the
// occurrences strictly earlier than cut are the first X of the rest,
// and of the first limit, member j holds those at j, j+k, j+2k, …: it
// takes what stride counts of its own occurrences before cut, capped at
// its share of the first limit. That count is then exactly its share of
// the first min(X, limit), so each member needs one stride.
func (e *Engine) strideRounds(k int, period, cut float64, limit int64) (now float64, n int64) {
	kk := int64(k)
	var at [groupCap]float64 // each member's last taken occurrence
	for j := range kk {
		m := &e.group[j]
		share := (limit - j + kk - 1) / kk
		if share == 0 || !(m.t < cut) {
			break // and so for every later member
		}
		var c int64
		at[j], m.t, c = stride(m.t, period, cut, share)
		n += c
	}
	e.strided += n
	return at[(n-1)%kk], n
}

// merge takes the occurrences of k members, ordered by (t, id), in pop
// order, and leaves each member's key and credit in e.group and e.now
// at the last one's time; it returns how many it took, at most limit.
// The earliest member takes its run in a register loop while its next
// occurrence is strictly earlier than both cut and the second member's
// time — its ID being above every other, it loses a tie — and then
// goes back into a ring of the members, kept in (t, id) order, behind
// every member at its time. A member whose credit is spent stays in the
// ring: the move ends when it comes first, or when the first is not
// strictly earlier than cut. Two members still merging after
// strideAfter runs take the rest in closed form (mergeStride) if they
// can, and by the loop if not.
func (e *Engine) merge(k int, cut float64, limit int64) int64 {
	const mask = groupCap - 1
	for j := range k {
		e.ring[j] = uint8(j)
	}
	var n int64
	now := e.now
	for h := 0; ; { // h counts the runs
		if k == 2 && h == strideAfter {
			if last, taken := e.mergeStride(n, cut, limit); taken > 0 {
				now, n = last, n+taken
				break
			}
		}
		r := e.ring[h&mask]
		m := &e.group[r]
		stop := cut
		if k > 1 {
			if t := e.group[e.ring[(h+1)&mask]].t; t < stop {
				stop = t
			}
		}
		// The chain's period and jitter, read once per run: the heap does
		// not move during a merge, so m.i still names its entry.
		q := e.ticks.At(e.queue[m.i].slot)
		t, left, period, jitter := m.t, m.left, q.period, q.jitter
		for {
			d := period
			if jitter {
				d = e.Jitter(d) // drawn as the occurrence is taken
			}
			now, t = t, t+d
			n++
			left--
			if left == 0 || n == limit || !(t < stop) {
				break
			}
		}
		m.t, m.id, m.left = t, e.nextID+n, left
		// Back into the ring, from the back: its ID being above every
		// other member's, it goes behind every member at its time.
		j := h + k
		for h++; j > h && e.group[e.ring[(j-1)&mask]].t > t; j-- {
			e.ring[j&mask] = e.ring[(j-1)&mask]
		}
		e.ring[j&mask] = r
		if next := &e.group[e.ring[h&mask]]; n == limit || next.left == 0 || !(next.t < cut) {
			break
		}
	}
	e.now = now
	return n
}

// mergeStride takes the rest of a two-member merge in closed form, as
// the loop would, after n occurrences, with the member due next
// strictly earlier than cut and holding credit. It leaves each member's
// key and credit in e.group and returns the last taken occurrence's
// time and how many it took; 0, having changed nothing, for a jittered
// member, a tie only IDs would order, or a heartbeat inside the rest.
//
// A plain member's times are its own chain of adds: the other member
// decides only the IDs. A member whose credit is spent ends the move at
// its next occurrence (its β), so the move may take every occurrence
// strictly earlier than the least of cut and both βs — stopping there
// is exact, as stopping early always is — and each member counts its
// own share of them (stride). The member whose last taken occurrence is
// the later took the move's last; the other's last follows its own
// others and those of the later member strictly earlier than it, unless
// the later member takes one at that very time.
func (e *Engine) mergeStride(n int64, cut float64, limit int64) (now float64, taken int64) {
	var run [2]struct {
		period, last, next float64
		c                  int64
	}
	// Each member's occurrences strictly earlier than cut, up to its
	// credit; end is where the move must stop.
	end := cut
	for x := range run {
		m, r := &e.group[x], &run[x]
		q := e.ticks.At(e.queue[m.i].slot)
		if q.jitter {
			return 0, 0
		}
		r.period = q.period
		if m.left == 0 {
			end = min(end, m.t)
		} else if m.t < cut {
			if r.last, r.next, r.c = stride(m.t, r.period, cut, m.left); r.c == m.left {
				end = min(end, r.next) // its β
			}
		}
	}
	// What is strictly earlier than end is a prefix of each count: count
	// again a member that reached end.
	for x := range run {
		m, r := &e.group[x], &run[x]
		if r.c > 0 && !(r.last < end) {
			r.c = 0
			if m.t < end {
				r.last, r.next, r.c = stride(m.t, r.period, end, m.left)
			}
		}
		taken += r.c
	}
	if taken == 0 || taken > limit-n {
		return 0, 0
	}
	// x took the move's last occurrence; y's last, if it took any, comes
	// after its own others and x's strictly earlier ones. If x takes one
	// at y's last time — its last included, when the two are equal —
	// only IDs order the two.
	x, y := 0, 1
	if run[0].c == 0 || run[1].c > 0 && run[1].last > run[0].last {
		x, y = 1, 0
	}
	var rank [2]int64
	rank[x] = taken - 1
	if run[y].c > 0 {
		var before int64
		at := e.group[x].t
		if at < run[y].last {
			_, at, before = stride(at, run[x].period, run[y].last, run[x].c)
		}
		if at == run[y].last {
			return 0, 0
		}
		rank[y] = run[y].c - 1 + before
	}
	for j := range run {
		if m, r := &e.group[j], &run[j]; r.c > 0 {
			m.t, m.id, m.left = r.next, e.nextID+n+rank[j]+1, m.left-r.c
		}
	}
	e.strided += taken
	return run[x].last, taken
}

// joins reports whether the chain in slot may join a move: armed and
// not solo.
func (e *Engine) joins(slot int32) bool {
	q := e.ticks.At(slot)
	return q.credit > 0 && !q.solo
}
