package sim

// Fork support: an engine can be copied at any virtual time so a
// speculative lineage (a what-if query, a branch of a search) runs
// forward without disturbing the original. An event is data — a class
// and a slot — so the fork copies the heap, the Periodic table and the
// jitter stream by value, every pending event under its (time, ID)
// key, and nextID/nextFront: both lineages pop in the same order and
// allocate identical IDs after the fork point, the precondition for
// byte-identical decision traces. What points into the parent's model
// is not copied: each forked owner registers its handler once per
// class (Handle) and takes over its chains (TakeTick), and CheckFork —
// and the fork's first step — refuses a fork that still owes one. A
// pending closure (At) closes over the parent's state: it cannot fork.

import (
	"fmt"
	"slices"
)

// Fork returns a copy of the engine at the current virtual time:
// clock, ID allocators, step counts, the queue, the Periodic table and
// the jitter stream (Rand.Fork). The fork owes a handler for every
// class its parent handles and an owner for every chain with a pending
// occurrence; it has no progress hook (install one with
// EveryProcessed).
func (e *Engine) Fork() *Engine {
	f := &Engine{
		now:        e.now,
		nextID:     e.nextID,
		nextFront:  e.nextFront,
		processed:  e.processed,
		skipped:    e.skipped,
		queue:      slices.Clone(e.queue),
		ticks:      e.ticks.Clone(),
		jitter:     e.jitter.Fork(),
		jitterFrac: e.jitterFrac,
		unchecked:  true,
	}
	for i := range f.ticks.items {
		f.ticks.items[i].owner = nil
	}
	for c, h := range e.handlers {
		f.owed[c] = h != nil
	}
	return f
}

// CheckFork reports what a fork still owes, naming it: a class its
// parent handles that no handler was registered for, a chain with a
// pending occurrence that no owner took over, or a pending closure. It
// returns nil on an engine that owes nothing; the fork's first step
// calls it, and panics with the error.
func (e *Engine) CheckFork() error {
	for c, owed := range e.owed {
		if owed && e.handlers[c] == nil {
			return fmt.Errorf("sim: fork never registered a handler for class %q", classNames[c])
		}
	}
	for i := range e.queue {
		switch ev := &e.queue[i]; {
		case ev.class == closure:
			return fmt.Errorf("sim: closure event %d at t=%g cannot fork", ev.id, ev.t)
		case ev.class == tick && e.ticks.At(ev.slot).owner == nil:
			return fmt.Errorf("sim: fork never took over tick %d (event %d at t=%g)", ev.slot, ev.id, ev.t)
		}
	}
	e.unchecked = false
	return nil
}

// mustCheck is CheckFork on a fork's first step.
func (e *Engine) mustCheck() {
	if !e.unchecked {
		return
	}
	if err := e.CheckFork(); err != nil {
		panic(err)
	}
}
