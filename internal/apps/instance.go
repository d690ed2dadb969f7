package apps

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/cpuset"
	"repro/internal/derr"
	"repro/internal/hwmodel"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Placement describes where one rank of a job runs: the node, the
// node's DROM system, the rank's virtual PID, and the initial mask it
// registers with (which a DROM PreInit reservation may override).
type Placement struct {
	Node        string
	Sys         *core.System
	PID         shmem.PID
	InitialMask cpuset.CPUSet
}

// Instance is a job execution: the application model advancing on the
// discrete-event engine, polling DROM at every iteration boundary
// (the application's DLB_PollDROM safe points).
type Instance struct {
	Spec    Spec
	Cfg     Config
	Iters   int
	JobName string

	eng    *sim.Engine
	demand *DemandTable
	tracer *trace.Tracer

	// OnComplete fires at job end with the completion time.
	OnComplete func(end float64)
	// FinalizeExternally leaves the DROM registrations in place at job
	// end so the resource manager's post_term / DROM_PostFinalize can
	// clean them up (and return stolen CPUs). When false, the instance
	// unregisters its ranks itself (plain DLB_Finalize).
	FinalizeExternally bool

	// ranks, envs, rows and settleFn outlive a Reset: a recycled
	// instance rebuilds its rank state in the arrays the last job left
	// behind.
	ranks []rankRun
	envs  []RankEnv // per-iteration scratch, reused across events
	// Traced instances only: rows is the pattern of the last executed
	// iteration (see recordTrace), which an armed span repeats from
	// spanT0 on every spanIter seconds, and settleFn what the tracer
	// calls to have an open span reported before it is read.
	rows             []trace.Segment
	spanT0, spanIter float64
	settleFn         func()
	// itersDone counts the iterations iterate has accounted for; while
	// a span is armed the engine has taken armed − tick.Credit() more
	// (see arm and settle).
	itersDone int
	started   bool
	completed bool
	stopped   bool
	// tick is the slot of the instance's chain in the engine's table (0
	// for none): it carries the instance's one pending event, and the
	// engine advances steady iterations through it by itself. It is
	// held from the first booking until the job finishes or stops.
	tick  int32
	armed int64
}

// rankRun is the live state of one rank.
type rankRun struct {
	p      Placement
	chunks int
	mask   cpuset.CPUSet
	// spans caches Machine.Spans(mask); it is refreshed whenever the
	// mask changes (register, resume, poll) so the per-iteration hot
	// path never recomputes it.
	spans bool
	// dem caches the demand-table handle of the rank's node, resolved
	// once per (re)placement so the per-iteration path never pays the
	// node-name map lookup.
	dem NodeHandle
}

// setMask records a new mask and refreshes the derived spans bit.
func (r *rankRun) setMask(m cpuset.CPUSet, machine hwmodel.Machine) {
	r.mask = m
	r.spans = machine.Spans(m)
}

// activeThreads returns the threads the rank actually exploits.
func (r *rankRun) activeThreads(spec *Spec) int {
	n := r.mask.Count()
	if spec.Class == Simulator && n > r.chunks {
		// Static partition: threads beyond the partition are useless.
		return r.chunks
	}
	return n
}

// NewInstance builds a job execution. iters <= 0 uses the spec's
// default. placements must have Cfg.Ranks entries.
func NewInstance(spec Spec, cfg Config, iters int, jobName string,
	eng *sim.Engine, demand *DemandTable, tracer *trace.Tracer,
	placements []Placement) (*Instance, error) {
	inst := new(Instance)
	if err := inst.Reset(spec, cfg, iters, jobName, eng, demand, tracer, placements); err != nil {
		return nil, err
	}
	return inst, nil
}

// Reset makes inst the execution NewInstance would build from the same
// arguments, in place: every field is set as on a fresh instance, and
// the rank array, the iteration scratch and the bound settle method of
// the previous use are kept. The caller owns the instance's lifetime —
// it must be idle (never started, completed or stopped, with no event
// pending) and referenced by nothing but the caller.
func (inst *Instance) Reset(spec Spec, cfg Config, iters int, jobName string,
	eng *sim.Engine, demand *DemandTable, tracer *trace.Tracer,
	placements []Placement) error {
	if len(placements) != cfg.Ranks {
		return fmt.Errorf("apps: %d placements for %d ranks", len(placements), cfg.Ranks)
	}
	if iters <= 0 {
		iters = spec.DefaultIters
	}
	inst.Scrub()
	inst.Spec, inst.Cfg, inst.Iters, inst.JobName = spec, cfg, iters, jobName
	inst.eng, inst.demand, inst.tracer = eng, demand, tracer
	if tracer != nil {
		if inst.settleFn == nil {
			inst.settleFn = inst.settle
		}
		inst.rows = slices.Grow(inst.rows, cfg.Ranks*cfg.Threads) // a row per thread, unless a mask outgrows the request
	}
	inst.ranks = slices.Grow(inst.ranks, len(placements))
	for _, p := range placements {
		inst.ranks = append(inst.ranks, rankRun{p: p, chunks: cfg.Threads})
	}
	return nil
}

// Scrub zeroes the instance down to what Reset keeps — the (emptied)
// rank and scratch arrays and the bound settle method — so an idle
// instance parked for reuse pins no job, engine, ledger or tracer.
func (inst *Instance) Scrub() {
	clear(inst.ranks) // the placements point at DROM systems
	clear(inst.rows)  // the rows name the job
	*inst = Instance{
		ranks: inst.ranks[:0], envs: inst.envs[:0], rows: inst.rows[:0],
		settleFn: inst.settleFn,
	}
}

// Start registers the ranks with DROM and begins execution at the
// current virtual time. Registration inherits any PreInit reservation
// made by the resource manager.
func (inst *Instance) Start() error {
	if inst.started {
		return fmt.Errorf("apps: instance %s already started", inst.JobName)
	}
	if inst.stopped {
		// Checkpointed or cancelled inside the launch-latency window,
		// before the ranks ever registered: the deferred start becomes
		// a no-op instead of spawning a ghost execution.
		return nil
	}
	inst.started = true
	for i := range inst.ranks {
		r := &inst.ranks[i]
		got, code := r.p.Sys.Register(r.p.PID, r.p.InitialMask)
		if code.IsError() {
			return fmt.Errorf("apps: register rank of %s: %w", inst.JobName, code)
		}
		inst.place(r, got)
	}
	// Initialization phase (serial, possibly memory-bound).
	initDur := 0.0
	for _, r := range inst.ranks {
		d := inst.Spec.InitTime(r.dem.Slowdown())
		if d > initDur {
			initDur = d
		}
	}
	inst.eng.AfterTick(&inst.tick, inst, initDur)
	return nil
}

// place settles r on its node with the mask registration granted. The
// node handle is resolved first: the rank's topology judgments (socket
// spans, clock) use its node's machine, which can differ per partition
// on heterogeneous clusters. The node's DROM system is pointed at the
// ledger, so a mask staged for the rank finds its way back here.
func (inst *Instance) place(r *rankRun, got cpuset.CPUSet) {
	r.dem = inst.demand.Handle(r.p.Node)
	r.p.Sys.WatchStages(r.dem.n)
	inst.applyMask(r, got)
}

// applyMask records r's new mask and the demand that follows from it.
func (inst *Instance) applyMask(r *rankRun, m cpuset.CPUSet) {
	r.setMask(m, r.dem.Machine())
	n := r.activeThreads(&inst.Spec)
	r.dem.n.setUsage(r.p.PID, n, inst.Spec.BWDemand(n), inst)
}

// Tick is the engine's callback for the instance's event
// (sim.Ticker): the next iteration while any is left, else the job's
// end (Resume keeps the count saying which).
func (inst *Instance) Tick() {
	if inst.itersDone < inst.Iters {
		inst.iterate()
	} else {
		inst.finish()
	}
}

// settle ends the armed span, if any: the iterations the engine took
// by itself are counted, their polls — each would have found nothing —
// are credited in one call per rank, and the remaining credit is
// withdrawn, so the pending occurrence, which already sits at the next
// iteration boundary under the event ID stepping would have given it,
// runs iterate again. It is what a wake does: the node ledgers call it
// on every change to a contention factor of a node holding one of the
// ranks and on every mask staged for one of the PIDs — the only two
// things that can make an iteration compute something the previous one
// did not — and the tracer before it is read. A traced instance
// reports the span here, as the last executed iteration's pattern
// taken n more times.
func (inst *Instance) settle() {
	if inst.armed == 0 {
		return
	}
	n := inst.armed - inst.eng.Periodic(inst.tick).Disarm()
	inst.armed = 0
	if inst.tracer != nil {
		inst.tracer.AddSpan(inst.spanT0, inst.spanIter, n, true, inst.rows, nil)
	}
	if n == 0 {
		return
	}
	inst.itersDone += int(n)
	for _, r := range inst.ranks {
		r.p.Sys.CreditPolls(r.p.PID, n)
	}
}

// Stop checkpoints the instance: the pending event is cancelled, the
// ranks unregister and release their demand, and the completed
// iteration count is preserved. Used by preemption-style resource
// managers (the baseline the paper argues against); a later Resume
// continues from the checkpoint.
func (inst *Instance) Stop() {
	if inst.completed || inst.stopped {
		return
	}
	if !inst.started {
		// Still inside the launch-latency window: no rank registered
		// and no demand was recorded. Flag the instance so the pending
		// Start event no-ops (a later Resume restarts it normally).
		inst.stopped = true
		return
	}
	inst.stopped = true
	inst.settle()
	inst.eng.FreeTick(&inst.tick)
	for _, r := range inst.ranks {
		inst.demand.Remove(r.p.Node, r.p.PID)
		r.p.Sys.Unregister(r.p.PID)
	}
}

// Resume restarts a stopped instance with fresh placements (possibly
// on different CPUs), paying restartCost seconds before iterations
// continue from the checkpointed progress. A checkpoint taken during
// the last iteration loses that iteration: it runs again.
func (inst *Instance) Resume(placements []Placement, restartCost float64) error {
	if !inst.stopped {
		return fmt.Errorf("apps: Resume on a non-stopped instance %s", inst.JobName)
	}
	if len(placements) != len(inst.ranks) {
		return fmt.Errorf("apps: Resume with %d placements for %d ranks", len(placements), len(inst.ranks))
	}
	// Registered from here on, however the checkpoint was taken: a
	// Stop inside the launch-latency window leaves started unset, and a
	// later Stop must release what this registers.
	inst.stopped, inst.started = false, true
	for i := range inst.ranks {
		r := &inst.ranks[i]
		r.p = placements[i]
		got, code := r.p.Sys.Register(r.p.PID, r.p.InitialMask)
		if code.IsError() {
			return fmt.Errorf("apps: re-register rank of %s: %w", inst.JobName, code)
		}
		inst.place(r, got)
	}
	if restartCost < 0 {
		restartCost = 0
	}
	inst.itersDone = min(inst.itersDone, inst.Iters-1)
	inst.eng.AfterTick(&inst.tick, inst, restartCost)
	return nil
}

// ItersDone returns the completed iteration count.
func (inst *Instance) ItersDone() int {
	return inst.itersDone + int(inst.armed-inst.eng.Periodic(inst.tick).Credit())
}

// Credit returns how many iterations the engine may still take by
// itself before iterate runs again: 0 unless a span is armed (for
// tests).
//
//simvet:testonly tests check a fork carries an armed span
func (inst *Instance) Credit() int64 { return inst.eng.Periodic(inst.tick).Credit() }

// Completed reports whether the job finished.
func (inst *Instance) Completed() bool { return inst.completed }

// iterate runs one lockstep iteration of all ranks.
func (inst *Instance) iterate() {
	if inst.completed || inst.stopped {
		return
	}
	inst.settle()
	// Malleability point: every rank polls DROM (DLB_PollDROM).
	for i := range inst.ranks {
		r := &inst.ranks[i]
		if m, code := r.p.Sys.Poll(r.p.PID); code == derr.Success {
			inst.applyMask(r, m)
		}
	}
	// Iteration duration: the slowest rank plus MPI sync.
	var iterDur float64
	if cap(inst.envs) < len(inst.ranks) {
		inst.envs = make([]RankEnv, len(inst.ranks))
	}
	envs := inst.envs[:len(inst.ranks)]
	for i := range inst.ranks {
		r := &inst.ranks[i]
		env := RankEnv{
			Threads:      r.activeThreads(&inst.Spec),
			Chunks:       r.chunks,
			BWSlowdown:   r.dem.Slowdown(),
			CPUShare:     r.dem.CPUShare(),
			SpansSockets: r.spans,
		}
		envs[i] = env
		if d := inst.Spec.IterTime(env); d > iterDur {
			iterDur = d
		}
	}
	iterDur += inst.Spec.CommSeconds
	steady := iterDur
	if inst.eng.Jittered() {
		// Real-machine variability (sim.Engine.SetJitter).
		iterDur = inst.eng.Jitter(iterDur)
	}
	inst.itersDone++
	inst.eng.AfterTick(&inst.tick, inst, iterDur) // Tick finishes once itersDone reaches Iters
	if inst.itersDone < inst.Iters {
		inst.arm(steady)
	}
	if inst.tracer != nil {
		inst.recordTrace(iterDur, envs)
	}
}

// arm hands the iterations between the one just booked and the last
// one to the engine, when they are steady by construction: an
// iteration's duration before jitter, steady, is a function of the
// ranks' masks and their nodes' ledgers alone, so until settle hears
// that one of those moved, each would poll, find nothing, compute
// steady again, jitter it and book the next — which is all the engine
// does in its place. On a jittered engine it arms with the engine's
// stream (sim.Periodic.ArmJitter): the engine takes occurrences in the
// order the executing engine pops them, and iterate is the only drawer
// from that stream, so each taken occurrence draws the value its
// iterate would have drawn. The last iteration books finish instead and always
// runs. A traced instance arms solo: the tracer puts the iterations the
// engine took back among the executed ones by their times, which is
// only exact for iterations taken alone at their instant
// (sim.Periodic.ArmSolo) — and a span repeats one period, so a traced
// and jittered instance never arms.
func (inst *Instance) arm(steady float64) {
	left := inst.Iters - inst.itersDone - 1
	jittered := inst.eng.Jittered()
	if left < 1 || inst.demand.neverArm || jittered && inst.tracer != nil ||
		!(steady > 0) || math.IsInf(steady, 1) {
		return
	}
	inst.armed = int64(left)
	switch p := inst.eng.Periodic(inst.tick); {
	case jittered:
		p.ArmJitter(steady, inst.armed)
	case inst.tracer == nil:
		p.Arm(steady, inst.armed)
	default:
		p.ArmSolo(steady, inst.armed)
		inst.spanT0, inst.spanIter = inst.eng.Now()+steady, steady
	}
}

// recordTrace reports the iteration that starts now: one row per
// thread on the unit interval (trace.Tracer.AddSpan), kept in inst.rows
// because an armed span repeats it.
func (inst *Instance) recordTrace(iterDur float64, envs []RankEnv) {
	rows := inst.rows[:0]
	for i := range inst.ranks {
		r := &inst.ranks[i]
		env := envs[i]
		ncpu := r.mask.Count()
		ipc := inst.Spec.EffIPC(env)
		cycles := r.dem.Machine().CyclesPerMicrosecond()
		cpu := -1
		for th := 0; th < max(r.chunks, ncpu); th++ {
			if th >= env.Threads || th >= ncpu {
				rows = append(rows, trace.Segment{
					Job: inst.JobName, Rank: i, Thread: th, CPU: -1,
					T1: 1, State: trace.Removed,
				})
				continue
			}
			cpu = r.mask.Next(cpu + 1)
			rows = append(rows, trace.Segment{
				Job: inst.JobName, Rank: i, Thread: th, CPU: cpu,
				T1: inst.Spec.ThreadBusyFraction(th, env), State: trace.Run,
				IPC: ipc, CyclesPerUs: cycles,
			})
		}
	}
	inst.rows = rows
	var flush func()
	if inst.armed > 0 {
		flush = inst.settleFn
	}
	inst.tracer.AddSpan(inst.eng.Now(), iterDur, 1, false, rows, flush)
}

// finish unregisters the ranks and fires OnComplete — last: the hook
// may hand the instance to its owner's free list, so nothing here
// touches it once the hook returns.
func (inst *Instance) finish() {
	if inst.completed || inst.stopped {
		return
	}
	inst.completed = true
	inst.eng.FreeTick(&inst.tick)
	for _, r := range inst.ranks {
		inst.demand.Remove(r.p.Node, r.p.PID)
		if !inst.FinalizeExternally {
			r.p.Sys.Unregister(r.p.PID)
		}
	}
	if inst.OnComplete != nil {
		inst.OnComplete(inst.eng.Now())
	}
}
