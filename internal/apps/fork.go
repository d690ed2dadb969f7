package apps

// Fork support for the application layer: a demand table and a running
// instance can be deep-copied so a forked simulation lineage advances
// its own executions. Ownership rules:
//
//   - the demand ledgers are cloned entry-for-entry, preserving the
//     entries' insertion order — setUsage swap-deletes, so the order
//     determines future layouts and must match in both lineages;
//   - rank placements are copied by value with Sys re-pointed at the
//     fork's DROM systems and the demand handle re-resolved against
//     the fork's table;
//   - the instance's pending engine event is NOT rescheduled: the
//     handle's state is copied — an armed span with it — and the fork
//     re-binds the occurrence to its own copy
//     (sim.Engine.RebindPeriodic), so the (time, ID) execution order
//     is untouched and both lineages finish the span alike;
//   - ledger entries do not carry their owners over: each forked
//     instance claims its ranks' entries again, and points its nodes'
//     forked DROM systems at the forked ledgers;
//   - Jitter, tracer and OnComplete do not carry over — the controller
//     that forks the instance points it at the forked cluster's jitter
//     stream and installs its own completion hook before RebindPending,
//     which re-points an armed jittered span at that stream.

import (
	"repro/internal/core"
	"repro/internal/shmem"
	"repro/internal/sim"
)

// Fork returns a deep copy of the demand table.
func (d *DemandTable) Fork() *DemandTable {
	f := &DemandTable{
		machine:  d.machine,
		nodes:    make(map[string]*nodeDemand, len(d.nodes)),
		neverArm: d.neverArm,
	}
	for name, n := range d.nodes { //simvet:ordered deep copy into a fresh map; per-node entry order is preserved below
		cp := &nodeDemand{
			idx:     make(map[shmem.PID]int, len(n.idx)),
			entries: append([]usage(nil), n.entries...),
			bwSum:   n.bwSum,
			threads: n.threads,
			dirty:   n.dirty,
			machine: n.machine,
		}
		for i, u := range cp.entries {
			cp.idx[u.pid] = i
			cp.entries[i].owner = nil // the parent's; Instance.Fork claims it
		}
		f.nodes[name] = cp
	}
	return f
}

// Fork returns a copy of the instance bound to the forked engine,
// demand table and DROM systems (sysOf resolves a node name to the
// fork's system). The pending event, if any, is carried as an unbound
// ID — call RebindPending once the engine fork is open for rebinding.
func (inst *Instance) Fork(eng *sim.Engine, demand *DemandTable, sysOf func(node string) *core.System) *Instance {
	cp := &Instance{
		Spec: inst.Spec, Cfg: inst.Cfg, Iters: inst.Iters, JobName: inst.JobName,
		eng: eng, demand: demand,
		FinalizeExternally: inst.FinalizeExternally,
		itersDone:          inst.itersDone,
		started:            inst.started,
		completed:          inst.completed,
		stopped:            inst.stopped,
		tick:               inst.tick,
		armed:              inst.armed,
		pendFinish:         inst.pendFinish,
	}
	cp.iterateFn = cp.iterate
	cp.finishFn = cp.finish
	live := inst.started && !inst.stopped && !inst.completed
	cp.ranks = make([]rankRun, len(inst.ranks))
	for i := range inst.ranks {
		r, nr := &inst.ranks[i], &cp.ranks[i]
		*nr = rankRun{p: r.p, chunks: r.chunks, mask: r.mask, spans: r.spans}
		nr.p.Sys = sysOf(r.p.Node)
		if live {
			nr.dem = demand.Handle(r.p.Node)
			nr.dem.n.setOwner(nr.p.PID, cp)
			nr.p.Sys.WatchStages(nr.dem.n)
		}
	}
	return cp
}

// RebindPending installs the forked instance's pending event closure
// (iterate or finish, per the recorded kind), and points an armed
// jittered span at the instance's Jitter — which the caller has set to
// the fork's stream by then. A no-op when no event is pending
// (checkpoint-stopped or completed instances).
func (inst *Instance) RebindPending() error {
	if !inst.tick.Pending() {
		return nil
	}
	fn := inst.iterateFn
	if inst.pendFinish {
		fn = inst.finishFn
	}
	inst.tick.RebindJitter(inst.Jitter)
	return inst.eng.RebindPeriodic(&inst.tick, fn)
}
