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
//     engine fork copies its chain — an armed span with it — under the
//     same slot, and the forked instance takes the chain over
//     (sim.Engine.TakeTick), so the (time, ID) execution order is
//     untouched and both lineages finish the span alike; a jittered
//     span draws from the forked engine's stream;
//   - ledger entries do not carry their owners over: each forked
//     instance claims its ranks' entries again, and points its nodes'
//     forked DROM systems at the forked ledgers;
//   - the tracer and OnComplete do not carry over — the controller
//     that forks the instance installs its own completion hook.

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
// fork's system). The copy takes over the instance's chain on eng.
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
	}
	if cp.tick != 0 {
		eng.TakeTick(cp.tick, cp)
	}
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
