package slurm

// Fork support: a running controller — queue, running set, per-node
// DROM shared memory, demand ledgers, incremental free-mask caches,
// fault-injection state and every pending engine event — can be
// cloned at the current virtual time so two lineages continue
// independently with byte-identical decisions.
//
// Ownership rules (see also ARCHITECTURE.md, "Snapshot & fork"):
//
//   - deep-cloned: the engine queue, shmem segments, DROM systems,
//     demand table, queuedJob/runningJob records, app instances,
//     free-mask caches, fault-state arrays, the metrics aggregates, and
//     one fresh sched.Policy per partition (ClonePolicy);
//   - shared frozen: the completed metrics.JobRecords — the child sees
//     them as history (metrics.Workload.Fork) and records its own
//     after them, so a fork costs what is live, not what happened;
//   - rebuilt: the per-partition policy views (view.go) are derived
//     state — the fork starts with them stale and its first policy
//     cycle rebuilds them from the cloned records;
//   - shared immutable: Job values (copy-on-write on mutation — see
//     SetQueuedMalleable), cluster spec, node name/machine/partition
//     tables, nodeIdx, the parsed fault script (nfWins);
//   - forked: the seeded streams, Jitter and nfRand (sim.Rand.Fork), so
//     both lineages draw the same values in the same order; forkJob sets
//     each instance's Jitter before RebindPending, which re-points an
//     armed jittered span at the fork's stream;
//   - dropped: Probe, Tracer — observers must never steer decisions,
//     so a blind fork decides identically;
//   - recycled: the free lists of job records (freeRunning,
//     freeQueued) are NOT forked — the child starts with both empty and
//     forkJob allocates every clone fresh, so no record, instance or
//     backing array is ever reachable from two lineages.
//
// Pending events are not re-scheduled: the engine fork preserves
// every (time, ID) pair and the controller copies each live slot of the
// pending-event table into its own and re-binds the slot's stored ID to
// its own firePendAt callback, which runs the copied descriptor through
// the same dispatcher the live lineage uses.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpuset"
	"repro/internal/hwmodel"
	"repro/internal/sched"
	"repro/internal/sim"
)

// pendKind tags a pending-event descriptor.
type pendKind uint8

const (
	// evStart is the deferred Instance.Start after the launch latency.
	evStart pendKind = iota + 1
	// evInterrupt is a FailAfter interrupt (interruptRunning).
	evInterrupt
	// evFaultScript is the t=0 deferral that schedules the fault
	// script's window events.
	evFaultScript
	// evWinDown / evWinDrain are scripted outage windows opening.
	evWinDown
	evWinDrain
	// evRepair / evDrainEnd return a node to service.
	evRepair
	evDrainEnd
	// evSeeded is an armed MTBF failure.
	evSeeded
	// evRequeue is a fault-killed job's backoff expiring.
	evRequeue
	// evResume is the deferred Instance.Resume of a checkpointed job
	// after the launch latency.
	evResume
)

// pendEv is the one description of a pending controller event, held in
// a slot of ctl.pend: the engine callback carries only the slot index,
// and dispatch executes the descriptor — in the live lineage and,
// copied by Fork, in the forked one. The zero kind marks a vacant slot.
type pendEv struct {
	kind    pendKind
	id      sim.EventID // the pending engine event, for Fork's re-bind
	seq     int         // evStart, evInterrupt, evRequeue, evResume
	node    int         // fault events: global node index
	home    int         // evRequeue: home partition index
	attempt int         // evRequeue
	until   float64     // window/outage horizon
	submit  float64     // evRequeue: original submit time
	job     *Job        // evRequeue
}

// trackAt schedules the event pe describes at absolute time t; the
// descriptor is held in a table slot until the event fires.
//
//simvet:hotpath
func (ctl *Controller) trackAt(t float64, pe pendEv) {
	i := ctl.pendSlot()
	pe.id = ctl.cluster.Engine.At(t, ctl.pendFn[i])
	ctl.pend[i] = pe
}

// trackAfter is trackAt at delay d from now.
func (ctl *Controller) trackAfter(d float64, pe pendEv) {
	ctl.trackAt(ctl.cluster.Engine.Now()+d, pe)
}

// pendSlot returns the index of a vacant slot of the pending-event
// table, growing the table when every slot is live.
func (ctl *Controller) pendSlot() int {
	if n := len(ctl.pendFree); n > 0 {
		i := ctl.pendFree[n-1]
		ctl.pendFree = ctl.pendFree[:n-1]
		return i
	}
	return ctl.growPend()
}

// growPend appends one slot to the pending-event table with its engine
// callback — the one closure a slot ever costs.
//
//simvet:coldpath once per table slot; the table is bounded by the peak in-flight event count
func (ctl *Controller) growPend() int {
	i := len(ctl.pend)
	ctl.pend = append(ctl.pend, pendEv{})
	ctl.pendFn = append(ctl.pendFn, func() { ctl.firePendAt(i) })
	return i
}

// firePendAt is the engine callback of the tracked event in slot i: it
// vacates the slot and executes the descriptor.
//
//simvet:hotpath
func (ctl *Controller) firePendAt(i int) {
	pe := ctl.pend[i]
	ctl.pend[i] = pendEv{}
	ctl.pendFree = append(ctl.pendFree, i)
	ctl.dispatch(pe)
}

// dispatch executes one controller event. It is the only statement of
// what each event kind does.
func (ctl *Controller) dispatch(pe pendEv) {
	switch pe.kind {
	case evStart:
		// srun/slurmstepd latency elapsed: the task starts (DLB_Init). A
		// seq that no longer names a running job was killed, preempted or
		// failed away inside the latency window; its reservations are
		// already released.
		if r := ctl.rBySeq[pe.seq]; r != nil {
			if err := r.inst.Start(); err != nil {
				ctl.fail(err)
			}
		}
	case evResume:
		// Same guard: resuming a job a node failure killed inside the
		// window would register ghost ranks.
		if r := ctl.rBySeq[pe.seq]; r != nil {
			if err := r.inst.Resume(ctl.placementsOf(r), ctl.RestartCost); err != nil {
				ctl.fail(err)
			}
		}
	case evInterrupt:
		ctl.interruptRunning(pe.seq)
	case evFaultScript:
		ctl.scheduleFaultWindows()
	case evWinDown:
		ctl.nodeDown(pe.node, pe.until)
	case evWinDrain:
		ctl.nodeDrain(pe.node, pe.until)
	case evRepair:
		ctl.nodeRepair(pe.node)
	case evDrainEnd:
		ctl.drainEnd(pe.node)
	case evSeeded:
		ctl.seededFault(pe.node)
	case evRequeue:
		ctl.requeueArrive(pe.job, pe.submit, pe.seq, pe.home, pe.attempt)
	default:
		ctl.failUnknownEvent(pe.kind)
	}
}

// failUnknownEvent fails the controller on a descriptor no event kind
// matches (a vacant slot fired, or a kind dispatch does not know).
//
//simvet:coldpath error path
func (ctl *Controller) failUnknownEvent(kind pendKind) {
	ctl.fail(fmt.Errorf("slurm: unknown pending-event kind %d", kind))
}

// Fork clones the cluster onto the forked engine: fresh shared-memory
// segments (same registered processes and masks), fresh DROM systems,
// a deep-copied demand table, the jitter stream continued at its
// position. The spec and node tables are shared immutable; the Tracer
// does not carry over (forks are untraced by contract).
func (c *Cluster) Fork(eng *sim.Engine) *Cluster {
	f := &Cluster{
		Machine:    c.Machine,
		Spec:       c.Spec,
		Nodes:      c.Nodes,
		Engine:     eng,
		Demand:     c.Demand.Fork(),
		Jitter:     c.Jitter.Fork(),
		JitterFrac: c.JitterFrac,
		reg:        c.reg.Fork(),
		sys:        make(map[string]*core.System, len(c.sys)),
		sysAt:      make([]*core.System, len(c.sysAt)),
		machines:   c.machines,
		partOf:     c.partOf,
	}
	for i, name := range c.Nodes {
		ns := core.NewSystem(f.reg.Get(name))
		ns.SyncTimeout = c.sysAt[i].SyncTimeout
		f.sys[name] = ns
		f.sysAt[i] = ns
	}
	return f
}

// Cluster returns the controller's simulated machine.
func (ctl *Controller) Cluster() *Cluster { return ctl.cluster }

// Fork clones the controller and the entire simulation state beneath
// it — engine, shared memory, demand, instances, scheduler policies,
// fault state, metrics aggregates — at the current virtual time; the
// completed job records are shared as frozen history. The returned
// engine is still inside its re-binding window: the caller must
// re-bind its own pending events (submission chains, scancel timers)
// and then call FinishFork on it before running either lineage.
//
// Every mode forks — the builtin policies (scheds stays nil in the
// fork) as well as installed sched policies, jittered and faulted
// clusters alike. Fork refuses exactly one state: a failed controller.
func (ctl *Controller) Fork() (*Controller, *sim.Engine, error) {
	if ctl.Err != nil {
		return nil, nil, fmt.Errorf("slurm: Fork of a failed controller: %w", ctl.Err)
	}
	eng := ctl.cluster.Engine.Fork()
	c := ctl.cluster.Fork(eng)
	ctl2 := &Controller{
		cluster:         c,
		policy:          ctl.policy,
		NodeSelection:   ctl.NodeSelection,
		Spillover:       ctl.Spillover,
		SpillAfter:      ctl.SpillAfter,
		SpillDepth:      ctl.SpillDepth,
		ServeEvolving:   ctl.ServeEvolving,
		LaunchLatency:   ctl.LaunchLatency,
		CheckpointCost:  ctl.CheckpointCost,
		RestartCost:     ctl.RestartCost,
		drainUntil:      ctl.drainUntil,
		seq:             ctl.seq,
		admins:          make([]*core.Admin, len(ctl.admins)),
		nodeMasks:       append([]cpuset.CPUSet(nil), ctl.nodeMasks...),
		nodeIdx:         ctl.nodeIdx, // read-only after construction
		nodeFree:        append([]cpuset.CPUSet(nil), ctl.nodeFree...),
		nodeFreeN:       append([]int(nil), ctl.nodeFreeN...),
		nodeFreeOK:      append([]bool(nil), ctl.nodeFreeOK...),
		qBySeq:          make(map[int]*queuedJob, len(ctl.qBySeq)),
		rBySeq:          make(map[int]*runningJob, len(ctl.rBySeq)),
		viewsStale:      true, // rebuilt from the cloned records on the first policy cycle
		cyclePending:    ctl.cyclePending,
		cycleEv:         ctl.cycleEv,
		lastCycleAt:     ctl.lastCycleAt,
		rearmedAt:       ctl.rearmedAt,
		Cycles:          ctl.Cycles,
		ShmemFaults:     ctl.ShmemFaults,
		DebugInvariants: ctl.DebugInvariants,
		neverRecycle:    ctl.neverRecycle,
		Records:         *ctl.Records.Fork(),
	}
	if ctl.scheds != nil {
		ctl2.scheds = make([]sched.Policy, len(ctl.scheds))
		for i, p := range ctl.scheds {
			ctl2.scheds[i] = p.ClonePolicy()
		}
	}
	for i, n := range c.Nodes {
		admin, code := c.SystemAt(i).Attach()
		if code.IsError() {
			return nil, nil, fmt.Errorf("slurm: Fork attach on %s: %w", n, code)
		}
		ctl2.admins[i] = admin
	}
	// forkJob clones one job record with its instance: a running job's,
	// or the checkpoint image a queued job resumes from.
	sysOf := func(node string) *core.System { return c.System(node) }
	forkJob := func(r *runningJob) (*runningJob, error) {
		cr := ctl2.allocRunning(r.inst.Fork(eng, c.Demand, sysOf))
		cr.job, cr.seq, cr.pidx, cr.homePidx = r.job, r.seq, r.pidx, r.homePidx
		cr.submit, cr.start, cr.requeues = r.submit, r.start, r.requeues
		cr.nodeAt = append([]int(nil), r.nodeAt...)
		cr.tasks = append([]taskRef(nil), r.tasks...)
		cr.nodeIdxs = append([]int(nil), r.nodeIdxs...)
		cr.curCPUs, cr.curOK = r.curCPUs, r.curOK
		cr.inst.Jitter, cr.inst.JitterFrac = c.Jitter, r.inst.JitterFrac
		cr.inst.OnComplete = cr.onComplete
		if err := cr.inst.RebindPending(); err != nil {
			return nil, fmt.Errorf("slurm: Fork job %s: %w", cr.job.Name, err)
		}
		return cr, nil
	}
	ctl2.queue = make([]*queuedJob, len(ctl.queue))
	for i, q := range ctl.queue {
		cq := *q
		if q.resume != nil {
			cr, err := forkJob(q.resume)
			if err != nil {
				return nil, nil, err
			}
			cq.resume = cr
		}
		ctl2.queue[i] = &cq
		ctl2.qBySeq[cq.seq] = &cq
	}
	ctl2.running = make([]*runningJob, len(ctl.running))
	for i, r := range ctl.running {
		cr, err := forkJob(r)
		if err != nil {
			return nil, nil, err
		}
		ctl2.running[i] = cr
		ctl2.rBySeq[cr.seq] = cr
	}
	// Fault-injection state: arrays by value, the parsed script shared,
	// the MTBF stream continued.
	ctl2.nfPlan = ctl.nfPlan
	ctl2.nfWins = ctl.nfWins
	ctl2.nfLimbo = ctl.nfLimbo
	if ctl.nfState != nil {
		ctl2.nfState = append([]hwmodel.NodeState(nil), ctl.nfState...)
		ctl2.nfDownUntil = append([]float64(nil), ctl.nfDownUntil...)
		ctl2.nfDrainUntil = append([]float64(nil), ctl.nfDrainUntil...)
		ctl2.nfDownStart = append([]float64(nil), ctl.nfDownStart...)
	}
	if ctl.nfArmed != nil {
		ctl2.nfArmed = append([]bool(nil), ctl.nfArmed...)
	}
	ctl2.nfRand = ctl.nfRand.Fork()
	// Re-bind the pending events: the coalesced cycle event, then every
	// live slot of the pending-event table, copied into the fork's own
	// (compacted: a slot's index is no decision input) and bound there
	// to the slot's stored event ID.
	ctl2.runCycleFn = ctl2.runCycle
	if ctl.cyclePending {
		if err := eng.Rebind(ctl.cycleEv, ctl2.runCycleFn); err != nil {
			return nil, nil, fmt.Errorf("slurm: Fork cycle event: %w", err)
		}
	}
	for _, pe := range ctl.pend {
		if pe.kind == 0 {
			continue
		}
		i := ctl2.pendSlot()
		ctl2.pend[i] = pe
		if err := eng.Rebind(pe.id, ctl2.pendFn[i]); err != nil {
			return nil, nil, fmt.Errorf("slurm: Fork pend event: %w", err)
		}
	}
	return ctl2, eng, nil
}

// SetQueuedMalleable flips the malleability of a still-queued job.
// The shared Job value is replaced copy-on-write so a lineage forked
// before the change never observes it. Returns false when no queued
// job has that name.
func (ctl *Controller) SetQueuedMalleable(name string, malleable bool) bool {
	for _, q := range ctl.queue {
		if q.job.Name != name {
			continue
		}
		if q.job.Malleable != malleable {
			nj := *q.job
			nj.Malleable = malleable
			// The view entry carries the flag: re-insert it at its
			// (unchanged) position.
			ctl.viewDequeue(q)
			q.job = &nj
			ctl.viewEnqueue(q)
			ctl.kick()
		}
		return true
	}
	return false
}
