package slurm

// Fork support: a running controller — the per-partition views that
// hold its live jobs, per-node DROM shared memory, demand ledgers,
// incremental free-mask caches, fault-injection state and every
// pending engine event — can be cloned at the current virtual time so
// two lineages continue independently with byte-identical decisions.
//
// Ownership rules (see also ARCHITECTURE.md, "Snapshot & fork"):
//
//   - deep-cloned: the engine queue, shmem segments, DROM systems,
//     demand table, the per-partition views entry for entry with the
//     queuedJob/runningJob records behind them (each running entry's
//     Nodes re-pointed at its cloned record's nodeIdxs) and the seq
//     indexes refilled from them, app instances, free-mask caches,
//     fault-state arrays, the metrics aggregates, and one fresh
//     sched.Policy per partition (ClonePolicy);
//   - shared frozen: the completed metrics.JobRecords — the child sees
//     them as history (metrics.Workload.Fork) and records its own
//     after them, so a fork costs what is live, not what happened;
//   - shared immutable: Job values (copy-on-write on mutation — see
//     SetQueuedMalleable), cluster spec, node name/machine/partition
//     tables, nodeIdx, the parsed fault script (nfWins);
//   - forked: the seeded streams — the engine's jitter stream, which
//     the engine fork continues, and nfRand (sim.Rand.Fork) — so both
//     lineages draw the same values in the same order;
//   - dropped: Probe, Tracer — observers must never steer decisions,
//     so a blind fork decides identically;
//   - recycled: the free lists of job records (freeRunning,
//     freeQueued) are NOT forked — the child starts with both empty and
//     forkJob allocates every clone fresh, so no record, instance or
//     backing array is ever reachable from two lineages.
//
// Pending events are not re-scheduled: the engine fork copies every
// pending event as its class and slot under its (time, ID) key, the
// controller copies the pending-event table the slots index by value,
// and registers its handlers on the forked engine once per class; each
// forked instance takes over its chain. The forked firePendAt runs the
// copied descriptor through the same dispatcher the live lineage uses.

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
// a slot of ctl.pend: the engine event carries only the slot index,
// and dispatch executes the descriptor — in the live lineage and,
// copied by Fork, in the forked one. The zero kind marks a vacant slot.
type pendEv struct {
	kind    pendKind
	seq     int     // evStart, evInterrupt, evRequeue, evResume
	node    int     // fault events: global node index
	home    int     // evRequeue: home partition index
	attempt int     // evRequeue
	until   float64 // window/outage horizon
	submit  float64 // evRequeue: original submit time
	job     *Job    // evRequeue
}

// The controller's event classes: the deferred cycle, and a slot of
// the pending-event table.
var (
	cycleClass = sim.NewClass("slurm.cycle")
	pendClass  = sim.NewClass("slurm.pend")
)

// handle registers the controller's handlers on its engine, once per
// class — in the live lineage and in every fork.
func (ctl *Controller) handle() {
	ctl.cluster.Engine.Handle(cycleClass, func(int32) { ctl.runCycle() })
	ctl.cluster.Engine.Handle(pendClass, ctl.firePendAt)
}

// trackAt schedules the event pe describes at absolute time t; the
// descriptor is held in a table slot until the event fires.
//
//simvet:hotpath
func (ctl *Controller) trackAt(t float64, pe pendEv) {
	ctl.cluster.Engine.Post(t, pendClass, ctl.pend.Put(pe))
}

// trackAfter is trackAt at delay d from now.
func (ctl *Controller) trackAfter(d float64, pe pendEv) {
	ctl.trackAt(ctl.cluster.Engine.Now()+d, pe)
}

// firePendAt runs the tracked event in slot i: it vacates the slot
// and executes the descriptor.
//
//simvet:hotpath
func (ctl *Controller) firePendAt(i int32) { ctl.dispatch(ctl.pend.Take(i)) }

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
			if err := r.inst.Resume(ctl.placementsOf(r), restartCost); err != nil {
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
// a deep-copied demand table. The spec and node tables are shared
// immutable; the Tracer does not carry over (forks are untraced by
// contract).
func (c *Cluster) Fork(eng *sim.Engine) *Cluster {
	f := &Cluster{
		Machine:  c.Machine,
		Spec:     c.Spec,
		Nodes:    c.Nodes,
		Engine:   eng,
		Demand:   c.Demand.Fork(),
		reg:      c.reg.Fork(),
		sys:      make(map[string]*core.System, len(c.sys)),
		sysAt:    make([]*core.System, len(c.sysAt)),
		machines: c.machines,
		partOf:   c.partOf,
		nameRank: c.nameRank,
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
// completed job records are shared as frozen history. The controller
// and its instances have taken over what they own on the returned
// engine; a caller that owns more of the parent engine's events
// (submission chains, scancel timers) registers its own handlers there,
// and checks the engine (sim.Engine.CheckFork) before running it.
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
		Spillover:       ctl.Spillover,
		SpillAfter:      ctl.SpillAfter,
		SpillDepth:      ctl.SpillDepth,
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
		views:           newViews(c),
		cyclePending:    ctl.cyclePending,
		lastCycleAt:     ctl.lastCycleAt,
		rearmedAt:       ctl.rearmedAt,
		Cycles:          ctl.Cycles,
		ShmemFaults:     ctl.ShmemFaults,
		DebugInvariants: ctl.DebugInvariants,
		neverRecycle:    ctl.neverRecycle,
		Records:         *ctl.Records.Fork(),
		pend:            ctl.pend.Clone(),
	}
	ctl2.handle()
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
	forkJob := func(r *runningJob) *runningJob {
		cr := ctl2.allocRunning(r.inst.Fork(eng, c.Demand, sysOf))
		cr.job, cr.seq, cr.pidx, cr.homePidx = r.job, r.seq, r.pidx, r.homePidx
		cr.submit, cr.start, cr.requeues = r.submit, r.start, r.requeues
		cr.nodeAt = append([]int(nil), r.nodeAt...)
		cr.tasks = append([]taskRef(nil), r.tasks...)
		cr.nodeIdxs = append([]int(nil), r.nodeIdxs...)
		cr.curCPUs, cr.curOK = r.curCPUs, r.curOK
		cr.inst.OnComplete = cr.onComplete
		return cr
	}
	for pi := range ctl.views {
		v, cv := &ctl.views[pi], &ctl2.views[pi]
		cv.st.Now = v.st.Now
		copy(cv.st.Free, v.st.Free)
		cv.st.Queue = append(cv.st.Queue, v.st.Queue...)
		cv.st.Running = append(cv.st.Running, v.st.Running...)
		cv.widthsDirty = v.widthsDirty
		for _, q := range v.qjobs {
			cq := *q
			if q.resume != nil {
				cq.resume = forkJob(q.resume)
			}
			cv.qjobs = append(cv.qjobs, &cq)
			ctl2.qBySeq[cq.seq] = &cq
		}
		for i, r := range v.rjobs {
			cr := forkJob(r)
			cv.rjobs = append(cv.rjobs, cr)
			cv.st.Running[i].Nodes = cr.nodeIdxs
			ctl2.rBySeq[cr.seq] = cr
		}
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
	return ctl2, eng, nil
}

// SetQueuedMalleable flips the malleability of a still-queued job.
// The shared Job value is replaced copy-on-write so a lineage forked
// before the change never observes it. Returns false when no queued
// job has that name.
func (ctl *Controller) SetQueuedMalleable(name string, malleable bool) bool {
	for pi := range ctl.views {
		for _, q := range ctl.views[pi].qjobs {
			if q.job.Name != name {
				continue
			}
			if q.job.Malleable != malleable {
				nj := *q.job
				nj.Malleable = malleable
				q.job = &nj
				ctl.kick()
			}
			return true
		}
	}
	return false
}
