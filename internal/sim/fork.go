package sim

// Fork support: an engine can be copied at any virtual time so a
// speculative lineage (a what-if query, a branch of a search) runs
// forward without disturbing the original. The queue entries carry
// closures over the owning model's state, so a fork cannot simply copy
// them — each pending event must be re-bound to a closure over the
// forked model. The protocol is:
//
//	f := eng.Fork()          // times, IDs and (t, id) pairs copied; fns nil
//	f.Rebind(id, fn)         // each owner re-installs its pending events
//	f.RebindPeriodic(p, fn)  // ... a chain's occurrence through its own handle copy
//	f.FinishFork()           // errors if any event was left unbound
//
// Event IDs are preserved verbatim: at equal times the queue orders by
// ID, so rescheduling under fresh IDs would reorder same-instant ties
// and diverge the forked lineage's decisions. nextID/nextFront are
// copied too, so both lineages allocate identical IDs for identical
// logical operations after the fork point — the precondition for
// byte-identical decision traces.

import "fmt"

// Fork returns a copy of the engine at the current virtual time:
// clock, ID allocators, step counts, and every live pending event as an
// unbound (t, id) pair. Cancelled entries are dropped — the parent
// discards them without executing, so both lineages agree. A chain's
// occurrence comes over without its handle: the owner copies the
// handle's state and re-binds through the copy (RebindPeriodic), so an
// armed span continues in both lineages. The fork has no progress
// hook; install one with EveryProcessed.
func (e *Engine) Fork() *Engine {
	f := &Engine{
		now:       e.now,
		nextID:    e.nextID,
		nextFront: e.nextFront,
		processed: e.processed,
		skipped:   e.skipped,
	}
	f.queue = make([]event, 0, len(e.queue))
	for i := range e.queue {
		if e.queue[i].fn == nil {
			continue
		}
		f.queue = append(f.queue, event{t: e.queue[i].t, id: e.queue[i].id})
	}
	// Dropping cancelled entries breaks the heap shape; (t, id) is a
	// total order, so one heapify restores it. The rebind index is
	// built after — heapify moves entries.
	f.heapify()
	f.rebind = make(map[int64]int, len(f.queue))
	for i := range f.queue {
		f.rebind[f.queue[i].id] = i
	}
	return f
}

// heapify restores the heap invariant over the whole queue.
func (e *Engine) heapify() {
	for i := len(e.queue)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
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

// Rebind installs the closure of a forked pending event. It errors on
// an ID the fork does not hold, an already-rebound event, or a nil fn
// (an event that must become a no-op in the fork is rebound to an
// empty closure, preserving the processed count of the parent, which
// still executes its version).
//
// Indexes recorded at Fork stay valid because nothing may push or pop
// between Fork and FinishFork: rebinding is a synchronous setup phase.
func (e *Engine) Rebind(id EventID, fn func()) error {
	if e.rebind == nil {
		return fmt.Errorf("sim: Rebind outside a Fork/FinishFork window")
	}
	i, ok := e.rebind[int64(id)]
	if !ok {
		return fmt.Errorf("sim: Rebind of unknown event %d", id)
	}
	if e.queue[i].fn != nil {
		return fmt.Errorf("sim: event %d rebound twice", id)
	}
	if fn == nil {
		return fmt.Errorf("sim: Rebind of event %d with nil fn", id)
	}
	e.queue[i].fn = fn
	return nil
}

// FinishFork closes the rebind window, verifying every forked event
// received a closure; an unbound event means some state owner was not
// forked and would panic (nil call) mid-run.
func (e *Engine) FinishFork() error {
	if e.rebind == nil {
		return fmt.Errorf("sim: FinishFork outside a Fork")
	}
	for i := range e.queue {
		if e.queue[i].fn == nil {
			return fmt.Errorf("sim: forked event %d at t=%g was never rebound", e.queue[i].id, e.queue[i].t)
		}
	}
	e.rebind = nil
	return nil
}
