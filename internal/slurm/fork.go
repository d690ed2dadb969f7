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
//     free-mask caches, fault-state arrays, metrics records, and one
//     fresh sched.Policy per partition (ClonePolicy);
//   - rebuilt: the per-partition policy views (view.go) are derived
//     state — the fork starts with them stale and its first policy
//     cycle rebuilds them from the cloned records;
//   - shared immutable: Job values (copy-on-write on mutation — see
//     SetQueuedMalleable), cluster spec, node name/machine/partition
//     tables, nodeIdx, the parsed fault script (nfWins);
//   - dropped: Probe, Tracer, Jitter — observers must never steer
//     decisions, so a blind fork decides identically.
//
// Pending events are not re-scheduled: the engine fork preserves
// every (time, ID) pair and the controller re-binds each ID to its own
// firePend, which runs the copied descriptor through the same
// dispatcher the live lineage uses. The fault RNG is reconstructed
// from its seed and fast-forwarded by the recorded draw count, so both
// lineages continue the same stream.

import (
	"fmt"
	"math/rand"

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

// pendEv is the one description of a pending controller event: the
// engine callback carries only the event ID, and dispatch executes the
// descriptor — in the live lineage and, copied by Fork, in the forked
// one.
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

// trackAt schedules the event pe describes at absolute time t; the
// descriptor is held until the event fires.
func (ctl *Controller) trackAt(t float64, pe pendEv) {
	var id sim.EventID
	id = ctl.cluster.Engine.At(t, func() { ctl.firePend(id) })
	ctl.pend[id] = pe
}

// trackAfter is trackAt at delay d from now.
func (ctl *Controller) trackAfter(d float64, pe pendEv) {
	ctl.trackAt(ctl.cluster.Engine.Now()+d, pe)
}

// firePend is the engine callback of every tracked event: it retires
// the descriptor and executes it.
func (ctl *Controller) firePend(id sim.EventID) {
	pe := ctl.pend[id]
	delete(ctl.pend, id)
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
		ctl.fail(fmt.Errorf("slurm: unknown pending-event kind %d", pe.kind))
	}
}

// Fork clones the cluster onto the forked engine: fresh shared-memory
// segments (same registered processes and masks), fresh DROM systems,
// a deep-copied demand table. The spec and node tables are shared
// immutable; Tracer and Jitter do not carry over (forks are untraced
// and jitter-free by contract).
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
// fault state, metrics — at the current virtual time. The returned
// engine is still inside its re-binding window: the caller must
// re-bind its own pending events (submission chains, scancel timers)
// and then call FinishFork on it before running either lineage.
//
// Every mode forks — the builtin policies (scheds stays nil in the
// fork) as well as installed sched policies. Fork refuses exactly two
// states: a failed controller, and a jittered cluster (the jitter RNG
// stream cannot be split).
func (ctl *Controller) Fork() (*Controller, *sim.Engine, error) {
	if ctl.Err != nil {
		return nil, nil, fmt.Errorf("slurm: Fork of a failed controller: %w", ctl.Err)
	}
	if ctl.cluster.Jitter != nil {
		return nil, nil, fmt.Errorf("slurm: Fork of a jittered cluster is not supported")
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
		pend:            make(map[sim.EventID]pendEv, len(ctl.pend)),
		cyclePending:    ctl.cyclePending,
		cycleEv:         ctl.cycleEv,
		lastCycleAt:     ctl.lastCycleAt,
		rearmedAt:       ctl.rearmedAt,
		Cycles:          ctl.Cycles,
		DebugInvariants: ctl.DebugInvariants,
		Records:         *ctl.Records.Clone(),
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
		cr := &runningJob{
			job: r.job, seq: r.seq, pidx: r.pidx, homePidx: r.homePidx,
			submit: r.submit, start: r.start,
			nodeAt:   append([]int(nil), r.nodeAt...),
			tasks:    append([]taskRef(nil), r.tasks...),
			nodeIdxs: append([]int(nil), r.nodeIdxs...),
			curCPUs:  r.curCPUs, curOK: r.curOK, requeues: r.requeues,
		}
		cr.inst = r.inst.Fork(eng, c.Demand, sysOf)
		cr.inst.OnComplete = func(end float64) { ctl2.onJobEnd(cr, end) }
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
	// the RNG reconstructed at the identical stream position.
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
	if ctl.nfRand != nil {
		ctl2.nfRand = rand.New(rand.NewSource(ctl.nfPlan.Seed))
		for i := int64(0); i < ctl.nfDraws; i++ {
			ctl2.nfRand.Float64()
		}
		ctl2.nfDraws = ctl.nfDraws
	}
	// Re-bind the pending events: the coalesced cycle event, then every
	// descriptor-carrying event. Re-binds are independent per event ID,
	// so the map order cannot influence the fork.
	if ctl.cyclePending {
		if err := eng.Rebind(ctl.cycleEv, ctl2.runCycle); err != nil {
			return nil, nil, fmt.Errorf("slurm: Fork cycle event: %w", err)
		}
	}
	for id, pe := range ctl.pend { //simvet:ordered independent per-ID re-binds
		ctl2.pend[id] = pe
		if err := eng.Rebind(id, func() { ctl2.firePend(id) }); err != nil {
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
