package slurm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/cpuset"
	"repro/internal/derr"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/sim"
)

// DefaultLaunchLatency models srun + slurmstepd startup.
const DefaultLaunchLatency = 1.0 // seconds

// preInitRetries bounds how many times a launch re-attempts its DROM
// reservation against a registry reporting ErrNoShmem before the
// controller gives up. One attempt is a composite of several
// registry writes (the entry plus one shrink per victim), so its
// failure probability is well above the per-write fault rate; the
// budget is sized so that even a registry failing half its composite
// attempts loses a committed launch with probability under 2^-24.
const preInitRetries = 24

// taskRef is one launched task: its virtual PID and the global index
// of its node.
type taskRef struct {
	pid shmem.PID
	ni  int
}

// runningJob tracks a launched job. Records are recycled: endJob hands
// a finished job's record to the controller's free list and the next
// launch fills it again, keeping the instance, the backing arrays of
// the three slices and the completion callback (see newRunning and
// releaseRunning).
type runningJob struct {
	job      *Job
	seq      int // submission sequence, the scheduler's stable handle
	pidx     int // partition index the job runs in
	homePidx int // partition the job was submitted to (≠ pidx after a spill)
	submit   float64
	start    float64
	nodeAt   []int     // global node indices, in node name order
	tasks    []taskRef // rank order
	inst     *apps.Instance

	// nodeIdxs caches the sorted partition-local node indices for the
	// scheduler snapshot (stable while the job runs; recomputed on
	// resume). Local = global − partition offset, so a one-partition
	// cluster sees the global indices unchanged.
	nodeIdxs []int
	// curCPUs caches the job's effective per-node CPU allocation (the
	// max over its nodes of the summed effective task masks). curOK is
	// cleared whenever a mask on one of the job's nodes may have
	// changed; the next snapshot recomputes lazily.
	curCPUs int
	curOK   bool

	// requeues counts how many node failures already sent this job
	// back to the queue (see nodefault.go; the retry cap makes the
	// next failure terminal).
	requeues int

	// onComplete is the instance's completion hook, bound to this
	// record once: ctl.onJobEnd(r, end).
	onComplete func(end float64)
}

// hasNode reports whether r occupies the node at global index ni.
func (r *runningJob) hasNode(ni int) bool {
	for _, n := range r.nodeAt {
		if n == ni {
			return true
		}
	}
	return false
}

// onNodeInto collects r's tasks on the node at global index ni into a
// caller-owned buffer.
func (r *runningJob) onNodeInto(dst []taskRef, ni int) []taskRef {
	dst = dst[:0]
	for _, t := range r.tasks {
		if t.ni == ni {
			dst = append(dst, t)
		}
	}
	return dst
}

// queuedJob is a waiting submission, or a checkpointed job awaiting
// resumption (resume != nil).
type queuedJob struct {
	job    *Job
	submit float64
	seq    int
	pidx   int // partition index the job currently targets
	// homePidx is the partition the job was submitted to. The
	// spillover pass may re-route pidx to another partition; homePidx
	// never changes, so metrics can record the origin.
	homePidx int
	resume   *runningJob
	// requeues counts prior node-failure requeues (nodefault.go).
	requeues int
}

// NodeSelection orders candidate nodes when a job can be placed on a
// subset of them: the paper's future-work knob ("at resource
// management level, by choosing as 'victim' nodes the ones with lower
// utilization").
type NodeSelection int

const (
	// SelectFreest prefers the least-utilized nodes (the paper's
	// suggested victim choice). Default.
	SelectFreest NodeSelection = iota
	// SelectPacked prefers the most-utilized nodes that still fit,
	// consolidating jobs and keeping nodes free for wide jobs.
	SelectPacked
)

func (s NodeSelection) String() string {
	if s == SelectPacked {
		return "packed"
	}
	return "freest"
}

// Controller is the slurmctld simulation: queueing, node selection and
// the DROM-enabled launch/termination protocol via per-node slurmd
// administrators.
type Controller struct {
	cluster *Cluster
	policy  Policy
	// scheds holds the installed scheduling policies, one instance per
	// partition; nil selects the builtin mask-level planner
	// (planBuiltin). See UseSched / UseSchedSet in sched_driver.go.
	scheds []sched.Policy

	// NodeSelection orders candidate nodes for placement.
	NodeSelection NodeSelection

	// Spillover enables the cross-partition spillover pass of
	// sched-driven runs: a queued job whose home partition cannot host
	// it right now may be re-routed to another partition whose node
	// shape fits its request, provided the move cannot delay that
	// partition's EASY head reservation. See spillover.go.
	Spillover bool
	// SpillAfter is the minimum time (virtual seconds) a job must have
	// waited in its home partition's queue before it may spill
	// (0 = immediately eligible).
	SpillAfter float64
	// SpillDepth is the minimum number of waiting jobs in the home
	// partition (including the candidate) before spillover triggers
	// (0 or 1 = any backlog qualifies).
	SpillDepth int

	// ServeEvolving makes the controller grant evolving-application
	// resize requests whenever resources free up.
	ServeEvolving bool

	// LaunchLatency is the srun→running delay.
	LaunchLatency float64
	// CheckpointCost / RestartCost model the state save/restore of the
	// preemption baseline (seconds per preempted job).
	CheckpointCost float64
	RestartCost    float64
	// drainUntil blocks scheduling cycles while a checkpoint is in
	// progress (written by tryPreempt, held by runCycle).
	drainUntil float64

	// seq numbers submissions and requeues; the live jobs themselves
	// are held by the per-partition views (view.go).
	seq int
	// admins holds one slurmd administrator per node, by global node
	// index. Everything inside the controller names a node by that
	// index; nodeIdx translates names at the API boundary (fault
	// scripts) only.
	admins  []*core.Admin
	nodeIdx map[string]int

	// Incremental scheduling-cycle state: per-node cached effective-
	// free masks with their popcounts (nodeFreeOK gates staleness),
	// the per-partition views — the store of live jobs — and the
	// seq→job indexes into them. See sched_driver.go and view.go.
	nodeMasks    []cpuset.CPUSet
	nodeFree     []cpuset.CPUSet
	nodeFreeN    []int
	nodeFreeOK   []bool
	qBySeq       map[int]*queuedJob
	rBySeq       map[int]*runningJob
	views        []partView
	cyclePending bool
	lastCycleAt  float64
	rearmedAt    float64

	// The memory recycled across jobs and kept across a Reset: the
	// free lists of job records and the scratch buffers.
	reusable
	// neverRecycle, set by tests only, keeps both free lists empty: the
	// allocate-every-record reference the recycling is compared against.
	neverRecycle bool

	// Node fault-injection state (nodefault.go). nfState == nil — the
	// default — means no fault plan is installed: every check in the
	// scheduling hot paths short-circuits on that nil and replays are
	// byte-identical to fault-free builds.
	nfPlan       FaultPlan
	nfState      []hwmodel.NodeState
	nfDownUntil  []float64 // repair horizon per down node
	nfDrainUntil []float64 // drain-end horizon per draining node
	nfDownStart  []float64 // outage start, for availability accounting
	nfArmed      []bool    // one pending seeded failure per node
	nfRand       *sim.Rand // seeded MTBF stream; nil without MTBF
	nfLimbo      int       // requeued jobs waiting out their backoff

	// Pending-event table (fork.go). pend describes every controller-
	// owned pending engine event (launch and resume completion,
	// interrupt, fault-script timer, window, repair, seeded failure,
	// requeue arrival): a live slot holds the descriptor its pendClass
	// event names, so tracking an event allocates nothing once the
	// table is warm. firePendAt executes the descriptor when the event
	// fires, and Fork copies the table by value. The deferred cycle
	// (cycleClass) needs no slot: at most one is ever outstanding.
	// nfWins retains the parsed fault script so a fork can rebuild the
	// window schedule.
	pend   sim.Slots[pendEv]
	nfWins []faultWindow

	// Cycles counts executed scheduling-policy passes (perf metric).
	Cycles int64

	// DebugInvariants cross-checks the incremental free-CPU accounting
	// against a full shared-memory re-scan after every cycle and fails
	// the controller on any divergence or out-of-range count.
	DebugInvariants bool

	// Records accumulates the per-job lifecycle metrics.
	Records metrics.Workload

	// Probe receives observability events (submissions, scheduling
	// cycles, policy passes, action outcomes, spillover verdicts, job
	// starts/ends, the Figure-2 DROM protocol steps). Nil — the default
	// — disables instrumentation entirely: every probe point is guarded
	// by one nil check and the disabled path allocates nothing. Probes
	// observe; they must never call back into the controller.
	Probe obs.Probe

	// Err holds the first internal error (model bugs surface loudly).
	Err error

	// ShmemFaults counts DROM admin calls that failed with ErrNoShmem —
	// a flaky or partitioned registry backend. Such failures degrade
	// (the call is skipped and the node's effective-free cache is
	// invalidated so the next cycle re-reads the segment) instead of
	// poisoning Err: an unreachable segment is an environment fault,
	// not a model bug.
	ShmemFaults int
}

// reusable is what a controller recycles across jobs and keeps across
// a Reset. None of it is a decision input: a record on a free list is
// scrubbed, and every scratch buffer is fully rewritten before use
// (the pin marks are generation-stamped).
type reusable struct {
	// Free lists of job records (see newRunning/releaseRunning and
	// newQueued/releaseQueued): a record whose job ended, or left the
	// queue for a launch, is scrubbed and kept for the next one. They
	// hold at most the peak number of simultaneously live records, and
	// nothing on them is reachable from anywhere else — a Fork child
	// starts with both empty and allocates its clones fresh.
	//
	//simvet:freelist
	freeRunning []*runningJob
	//simvet:freelist
	freeQueued []*queuedJob

	// Reusable scratch for the sched-driven launch path (single
	// goroutine; each buffer is fully rewritten before use), with the
	// marks that find a node pinned twice: pinSeen[ni] == pinGen while
	// startQueued checks a pin list.
	startCands []startCand
	pinSeen    []uint32
	pinGen     uint32
	splitBuf   []int
	maskBuf    []cpuset.CPUSet
	refsBuf    []taskRef
	planBuf    []LaunchPlan
	launchAt   []int
	placeBuf   []apps.Placement
	// placeName is where emitJobStart joins a multi-node placement.
	placeName []byte

	// Reusable scratch for the builtin planner (planBuiltin and
	// releaseResources): the task/affinity plugin's buffers, each
	// node's occupants as slurmd input, the placement candidates with
	// their plans (a slot's mask slice and shrink map are rewritten in
	// place), the chosen plans in name order, and release_resources'
	// grown masks with their PIDs in order.
	plan        planner
	occ         []JobOnNode
	cands       []builtinCand
	chosenPlans []LaunchPlan
	grown       map[shmem.PID]cpuset.CPUSet
	grownPIDs   []int

	// Spillover-pass scratch (spillPass): merge cursors, the chosen
	// host nodes, and per partition the ascending free-count vector,
	// the head reservation and the projection buffers behind it.
	spillCur   []int
	spillNodes []int
	spill      []spillPart
	resvFreeAt []float64
	resvOrder  []resvNode
	resvSorter resvNodeSorter
}

// NewController creates a controller with the given policy. One slurmd
// administrator attaches per node.
//
//simvet:testonly replays reset the controller of a kit (Reset); tests build one
func NewController(c *Cluster, policy Policy) *Controller {
	ctl := new(Controller)
	ctl.Reset(c, policy)
	return ctl
}

// Reset makes ctl what NewController(c, policy) would: no job, record,
// pending event, installed policy, fault plan, probe or error, every
// knob and count at its default. What it keeps is emptied capacity —
// its reusable memory, the seq indexes, the views, the pending-event
// table and the per-node caches — and its administrators, as long as
// c is its cluster, reset on the same layout (the administrators are
// still attached to c's nodes); a controller over another cluster or
// layout starts from nothing. Records is dropped, never truncated: a result
// handed out earlier may still hold its records. c must have been
// reset or built first, with no instance of ctl's still acting on it.
func (ctl *Controller) Reset(c *Cluster, policy Policy) {
	n := len(c.Nodes)
	same := ctl.cluster == c && len(ctl.admins) == n
	for i := 0; same && i < n; i++ {
		same = ctl.admins[i].System() == c.SystemAt(i)
	}
	if !same {
		*ctl = Controller{
			admins:  make([]*core.Admin, n),
			nodeIdx: make(map[string]int, n),
			qBySeq:  make(map[int]*queuedJob),
			rBySeq:  make(map[int]*runningJob),
			views:   newViews(c),
		}
		for i, name := range c.Nodes {
			admin, code := c.SystemAt(i).Attach()
			if code.IsError() {
				panic(code)
			}
			ctl.admins[i] = admin
			ctl.nodeIdx[name] = i
		}
	}
	clear(ctl.qBySeq)
	clear(ctl.rBySeq)
	ctl.pend.Reset()
	*ctl = Controller{
		cluster:        c,
		policy:         policy,
		LaunchLatency:  DefaultLaunchLatency,
		CheckpointCost: 120,
		RestartCost:    120,
		admins:         ctl.admins,
		nodeIdx:        ctl.nodeIdx,
		nodeMasks:      emptied(ctl.nodeMasks, n),
		nodeFree:       emptied(ctl.nodeFree, n),
		nodeFreeN:      emptied(ctl.nodeFreeN, n),
		nodeFreeOK:     emptied(ctl.nodeFreeOK, n),
		qBySeq:         ctl.qBySeq,
		rBySeq:         ctl.rBySeq,
		views:          emptyViews(ctl.views),
		lastCycleAt:    -1,
		rearmedAt:      -1,
		reusable:       ctl.reusable,
		pend:           ctl.pend,
	}
	for i := range n {
		ctl.nodeMasks[i] = c.MachineOfNode(i).NodeMask()
	}
	ctl.handle()
}

// emptied returns s resized to n zero elements, in its own array when
// that is large enough.
func emptied[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Policy returns the controller's scheduling policy.
func (ctl *Controller) Policy() Policy { return ctl.policy }

// QueueLen returns the number of waiting jobs.
func (ctl *Controller) QueueLen() int {
	n := 0
	for pi := range ctl.views {
		n += len(ctl.views[pi].qjobs)
	}
	return n
}

// RunningLen returns the number of running jobs.
func (ctl *Controller) RunningLen() int {
	n := 0
	for pi := range ctl.views {
		n += len(ctl.views[pi].rjobs)
	}
	return n
}

// Submit enqueues a job at the current virtual time and tries to
// schedule.
func (ctl *Controller) Submit(j *Job) error {
	if err := j.Validate(ctl.cluster); err != nil {
		return err
	}
	pidx, _ := ctl.cluster.Spec.PartitionIndex(j.Partition) // Validate resolved it
	ctl.seq++
	q := ctl.newQueued()
	*q = queuedJob{job: j, submit: ctl.cluster.Engine.Now(), seq: ctl.seq, pidx: pidx, homePidx: pidx}
	ctl.enqueue(q)
	if ctl.Probe != nil {
		ctl.Probe.Emit(obs.Event{
			Kind: obs.KindSubmit, Time: ctl.cluster.Engine.Now(),
			Job: j.Name, Seq: ctl.seq,
			Partition: ctl.cluster.Spec.Partitions[pidx].Name,
			Priority:  j.Priority, Nodes: j.Nodes, CPUs: j.CPUsPerNode(),
		})
	}
	if ctl.nfRand != nil {
		ctl.armSeededFaults()
	}
	ctl.kick()
	return nil
}

// originOf returns the origin-partition name of a job record: the
// home partition's name when a spill re-routed the job, "" otherwise
// (the common case — records only carry an origin when it differs
// from where the job ran).
func (ctl *Controller) originOf(pidx, homePidx int) string {
	if pidx == homePidx {
		return ""
	}
	return ctl.cluster.Spec.Partitions[homePidx].Name
}

// fail records the first internal error.
func (ctl *Controller) fail(err error) {
	if ctl.Err == nil {
		ctl.Err = err
	}
}

// protocol reports one DROM call of the Figure-2 protocol to the probe:
// the step, the node it ran on, and the task (of which job, when the
// caller knows) and mask it was made with.
func (ctl *Controller) protocol(step obs.Step, ni int, job string, pid shmem.PID, mask cpuset.CPUSet) {
	if ctl.Probe == nil {
		return
	}
	ctl.Probe.Emit(obs.Event{
		Kind: obs.KindProtocol, Step: step, Time: ctl.cluster.Engine.Now(),
		Placement: ctl.cluster.Nodes[ni], Job: job, PID: int(pid), Mask: mask,
	})
}

// shmemFault reports whether code is the registry-unreachable signal
// and, if so, absorbs it: the fault counter advances, the node's
// cached free mask is dropped (the segment may or may not have taken
// the write), and the caller skips the failed step instead of failing
// the run. Any other error class still belongs to ctl.fail.
func (ctl *Controller) shmemFault(ni int, code derr.Code) bool {
	if code != derr.ErrNoShmem {
		return false
	}
	ctl.ShmemFaults++
	ctl.invalidateNode(ni)
	return true
}

// kick is the one entry to the scheduling cycle: every trigger — a
// submission, a job end, a cancellation, a node returning to service,
// a requeue arrival — calls it, whichever planner is active.
//
// With sched policies installed, the first request of an instant runs
// synchronously — preserving the event→decision mapping the
// pre-incremental scheduler had, so replay decisions are unchanged —
// while every further request at the same timestamp coalesces into one
// deferred pass over the final state of the instant: a burst of N
// submissions and completions costs at most two policy passes, not N.
// The builtin planner is never coalesced: each of the paper's
// decisions stays attached to the event that caused it.
func (ctl *Controller) kick() {
	if ctl.cyclePending {
		return
	}
	if now := ctl.cluster.Engine.Now(); ctl.scheds != nil && ctl.lastCycleAt == now {
		ctl.deferCycle(now)
		return
	}
	ctl.runCycle()
}

// deferCycle parks the one deferred cycle at time t; requests arriving
// before it fires are absorbed by it.
//
//simvet:hotpath
func (ctl *Controller) deferCycle(t float64) {
	ctl.cyclePending = true
	ctl.cluster.Engine.Post(t, cycleClass, 0)
}

// runCycle executes a cycle now — from kick, or as the deferred event —
// unless a checkpoint drain is in progress, which holds it until the
// drain ends.
func (ctl *Controller) runCycle() {
	ctl.cyclePending = false
	now := ctl.cluster.Engine.Now()
	if now < ctl.drainUntil {
		ctl.deferCycle(ctl.drainUntil)
		return
	}
	ctl.lastCycleAt = now
	ctl.schedCycle()
}

// planBuiltin is the builtin planner: the paper's unchanged FCFS queue
// — the head of the priority-ordered queue, merged from the partitions'
// views, launches when selectNodes can place it at mask level under the
// controller's Policy, and blocks everything behind it when it cannot
// (PolicyPreempt first tries to checkpoint its way in). Like a policy
// pass it plans into controller-owned scratch, so a warm controller
// launches without allocating.
func (ctl *Controller) planBuiltin() {
	for pi := ctl.nextQueued(nil); pi >= 0; pi = ctl.nextQueued(nil) {
		q := ctl.views[pi].qjobs[0]
		nodes, plans := ctl.selectNodes(q.job, q.pidx)
		if nodes == nil {
			if ctl.policy == PolicyPreempt {
				ctl.tryPreempt(q.job, q.pidx)
			}
			return
		}
		ctl.dequeue(q)
		ctl.launch(q, nodes, plans)
	}
}

// tryPreempt checkpoints every running job in j's partition with
// lower priority than j, requeues them for later resumption, and
// parks the next cycle at the end of the checkpoint drain. It does
// nothing when no job can be preempted.
//
//simvet:coldpath per preempt action, not per cycle
func (ctl *Controller) tryPreempt(j *Job, pidx int) {
	var victims []*runningJob
	for _, r := range ctl.views[pidx].rjobs {
		if r.job.Priority < j.Priority {
			victims = append(victims, r)
		}
	}
	if len(victims) == 0 {
		return
	}
	for _, v := range victims {
		// Stop unregistered the tasks — unless the victim is still inside
		// its launch-latency window, where it only flags the instance and
		// the DROM_PreInit reservations are released here (finalizeTasks
		// tolerates the tasks that are already gone, and drops the nodes'
		// cached free masks either way).
		v.inst.Stop()
		ctl.finalizeTasks(v)
		ctl.removeRunning(v)
		ctl.seq++
		ctl.enqueue(&queuedJob{
			job: v.job, submit: v.submit, seq: ctl.seq, pidx: v.pidx, homePidx: v.homePidx, resume: v,
		})
		if ctl.Probe != nil {
			ctl.Probe.Emit(obs.Event{
				Kind: obs.KindAction, Act: obs.ActPreempt, Reason: obs.ReasonStarted,
				Time: ctl.cluster.Engine.Now(),
				Job:  v.job.Name, Seq: ctl.seq, Priority: v.job.Priority,
				Partition: ctl.cluster.Spec.Partitions[v.pidx].Name,
			})
		}
	}
	// The cycle that got here runs with no cycle pending, so the drain's
	// end takes the deferred slot and every request until then is held.
	until := ctl.cluster.Engine.Now() + ctl.CheckpointCost
	ctl.drainUntil = until
	ctl.deferCycle(until)
}

// jobsOn returns the running jobs with tasks on the node at global
// index ni, in launch order, as slurmd input, in controller-owned
// scratch: the result is valid until the next call.
func (ctl *Controller) jobsOn(ni int) []JobOnNode {
	running := ctl.views[ctl.cluster.partOf[ni]].rjobs
	out := slices.Grow(ctl.occ[:0], len(running))
	for _, r := range running {
		// Fill the task array the next slot held last time.
		tasks := out[:len(out)+1][len(out)].Tasks[:0]
		on := false
		for _, t := range r.tasks {
			if t.ni != ni {
				continue
			}
			if !on {
				// The job's task count bounds its tasks here.
				tasks, on = slices.Grow(tasks, len(r.tasks)), true
			}
			// Plan on the *effective* mask: a staged-but-unapplied change
			// is already binding — the CPUs it drops are promised to
			// someone else, and the CPUs it gains are spoken for.
			e, code := ctl.admins[ni].Peek(t.pid)
			if code.IsError() {
				continue // task gone mid-plan; skip
			}
			tasks = append(tasks, TaskInfo{PID: t.pid, Mask: e.EffectiveMask()})
		}
		if on {
			out = append(out, JobOnNode{Job: r.job, Tasks: tasks})
		}
	}
	ctl.occ = out
	return out
}

// builtinCand is a placement candidate of the builtin planner: a node
// by global index with its rank in name order, its free CPU count for
// the NodeSelection order, and the launch plan computed for it.
type builtinCand struct {
	ni   int
	rank int32
	free int
	plan LaunchPlan
}

// The candidate orders, as plain functions: a sort that calls one
// allocates nothing. Freest first is "victim nodes the ones with lower
// utilization"; packed is fewest free CPUs first.
func freestFirst(a, b builtinCand) int { return cmp.Compare(b.free, a.free) }
func packedFirst(a, b builtinCand) int { return cmp.Compare(a.free, b.free) }
func byName(a, b builtinCand) int      { return cmp.Compare(a.rank, b.rank) }

// selectNodes picks nodes for a job under the active policy — from
// the job's partition only — and returns their global indices in node
// name order with the per-node launch plans beside them, both in
// controller-owned scratch that the next call rewrites. nil means the
// job must wait.
func (ctl *Controller) selectNodes(j *Job, pidx int) ([]int, []LaunchPlan) {
	lo, n := ctl.cluster.Spec.NodeOffset(pidx), ctl.cluster.Spec.Partitions[pidx].Nodes
	cands := slices.Grow(ctl.cands[:0], n)
	for ni := lo; ni < lo+n; ni++ {
		// A down or draining node hosts no new launches.
		if !ctl.nodeUp(ni) {
			continue
		}
		// Plan into the next slot, over the buffers it held last time;
		// the slot joins the candidates only when the node fits.
		c := &cands[:len(cands)+1][len(cands)]
		machine := ctl.cluster.MachineOfNode(ni)
		occupants := ctl.jobsOn(ni)
		switch ctl.policy {
		case PolicySerial, PolicyPreempt:
			if len(occupants) > 0 || !ctl.plan.launch(machine, nil, j, &c.plan) {
				continue
			}
			c.free = machine.CoresPerNode()
		case PolicyDROM:
			if !j.Malleable && len(occupants) > 0 {
				continue // a rigid job needs free nodes
			}
			coAllocOK := true
			for _, o := range occupants {
				if !o.Job.Malleable {
					coAllocOK = false
				}
			}
			if !coAllocOK || !ctl.plan.launch(machine, occupants, j, &c.plan) {
				continue
			}
			c.free = ctl.cluster.SystemAt(ni).Segment().FreeMask().Count()
		case PolicyOversubscribe:
			// Always feasible: overlap the requested layout.
			c.plan.NewTaskMasks = c.plan.NewTaskMasks[:0]
			clear(c.plan.Shrinks)
			ctl.splitBuf = splitEvenInto(ctl.splitBuf, j.CPUsPerNode(), j.RanksPerNode())
			lo := 0
			for _, n := range ctl.splitBuf {
				c.plan.NewTaskMasks = append(c.plan.NewTaskMasks, cpuset.Range(lo, lo+n-1))
				lo += n
			}
			c.free = 0
		}
		c.ni, c.rank = ni, ctl.cluster.nameRank[ni]
		cands = cands[:len(cands)+1]
	}
	ctl.cands = cands
	if len(cands) < j.Nodes {
		return nil, nil
	}
	// Order candidates per the configured victim-node policy (ties keep
	// partition order), then the chosen ones by name.
	order := freestFirst
	if ctl.NodeSelection == SelectPacked {
		order = packedFirst
	}
	slices.SortStableFunc(cands, order)
	slices.SortFunc(cands[:j.Nodes], byName)
	nodeAt, plans := slices.Grow(ctl.launchAt[:0], j.Nodes), slices.Grow(ctl.chosenPlans[:0], j.Nodes)
	for _, c := range cands[:j.Nodes] {
		nodeAt = append(nodeAt, c.ni)
		plans = append(plans, c.plan)
	}
	ctl.launchAt, ctl.chosenPlans = nodeAt, plans
	return nodeAt, plans
}

// popFree takes the last record off a free list; nil when it is empty.
func popFree[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	r := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return r
}

// newQueued returns a blank waiting-job record: one releaseQueued
// parked, or a fresh one.
func (ctl *Controller) newQueued() *queuedJob {
	if q := popFree(&ctl.freeQueued); q != nil {
		return q
	}
	return new(queuedJob)
}

// releaseQueued parks q — dequeued, and read for the last time — for
// the next submission.
func (ctl *Controller) releaseQueued(q *queuedJob) {
	if ctl.neverRecycle {
		return
	}
	*q = queuedJob{}
	ctl.freeQueued = append(ctl.freeQueued, q)
}

// newRunning returns a blank running-job record: one releaseRunning
// parked, with its idle instance, slice arrays and completion hook, or
// a fresh one.
func (ctl *Controller) newRunning() *runningJob {
	if r := popFree(&ctl.freeRunning); r != nil {
		return r
	}
	return ctl.allocRunning(new(apps.Instance))
}

// allocRunning builds a record around inst and binds its completion
// hook — the one closure a record ever costs.
//
//simvet:coldpath once per record; launches reuse records from the free list
func (ctl *Controller) allocRunning(inst *apps.Instance) *runningJob {
	r := &runningJob{inst: inst}
	r.onComplete = func(end float64) { ctl.onJobEnd(r, end) }
	return r
}

// releaseRunning parks r for the next launch. The caller has taken r
// out of its partition's view and the seq index, has booked its
// record, and reads it no more; the instance is idle
// (completed, stopped, or never started — no event pending). Scrubbed,
// the record pins nothing of the job it served.
func (ctl *Controller) releaseRunning(r *runningJob) {
	if ctl.neverRecycle {
		return
	}
	r.inst.Scrub()
	*r = runningJob{
		nodeAt: r.nodeAt[:0], tasks: r.tasks[:0], nodeIdxs: r.nodeIdxs[:0],
		inst: r.inst, onComplete: r.onComplete,
	}
	if ctl.freeRunning == nil {
		// The list never holds more records than were live at once.
		ctl.freeRunning = make([]*runningJob, 0, ctl.RunningLen()+1)
	}
	ctl.freeRunning = append(ctl.freeRunning, r)
}

// launch executes the Figure 2 protocol for a scheduled job, or
// resumes a checkpointed one on fresh placements, in partition q.pidx.
// nodeAt names the nodes by global index, in node name order, with
// their plans beside them; both may be caller scratch (the job record
// keeps its own copy, and the planned masks are consumed here). q is
// dequeued already and is released here: the caller must not read it
// again.
//
//simvet:hotpath
func (ctl *Controller) launch(q *queuedJob, nodeAt []int, plans []LaunchPlan) {
	j := q.job
	r := q.resume
	resumed := r != nil
	if resumed {
		// Resumption: reuse the running-job record (submit and start
		// are preserved so response time spans the suspension).
		r.seq = q.seq
		r.tasks = r.tasks[:0]
	} else {
		r = ctl.newRunning()
		r.job, r.seq, r.pidx, r.homePidx = j, q.seq, q.pidx, q.homePidx
		r.submit, r.start, r.requeues = q.submit, ctl.cluster.Engine.Now(), q.requeues
	}
	ctl.releaseQueued(q)
	// The record's node tables: global indices in name order, and the
	// sorted partition-local indices of the scheduler snapshot; they,
	// the task list and the placements are sized from the job's shape
	// up front.
	ntasks := 0
	for _, plan := range plans {
		ntasks += len(plan.NewTaskMasks)
	}
	r.tasks = slices.Grow(r.tasks, ntasks)
	offset, n := ctl.cluster.Spec.NodeOffset(r.pidx), len(nodeAt)
	if cap(r.nodeAt) < n || cap(r.nodeIdxs) < n {
		// A fresh record, or a wider job: both tables in one array.
		both := make([]int, 2*n)
		r.nodeAt, r.nodeIdxs = both[:0:n], both[n:n]
	}
	r.nodeAt, r.nodeIdxs = r.nodeAt[:0], r.nodeIdxs[:0]
	for _, ni := range nodeAt {
		r.nodeAt = append(r.nodeAt, ni)
		r.nodeIdxs = append(r.nodeIdxs, ni-offset)
	}
	sort.Ints(r.nodeIdxs)
	// The launch-time allocation is exactly the planned masks; cache
	// the snapshot's per-node CPU figure from them.
	r.curCPUs, r.curOK = 0, true
	for _, plan := range plans {
		n := 0
		for _, mask := range plan.NewTaskMasks {
			n += mask.Count()
		}
		if n > r.curCPUs {
			r.curCPUs = n
		}
	}
	if ctl.Probe != nil {
		ctl.emitJobStart(r)
	}

	// placements is controller-owned scratch: the instance copies each
	// entry into its rank state, and a resumption rebuilds its own when
	// the latency elapses.
	placements := slices.Grow(ctl.placeBuf[:0], ntasks)
	for k, ni := range nodeAt {
		node, plan, admin := ctl.cluster.Nodes[ni], plans[k], ctl.admins[ni]
		if ctl.Probe != nil {
			ctl.Probe.Emit(obs.Event{
				Kind: obs.KindProtocol, Step: obs.StepLaunchRequest, Time: ctl.cluster.Engine.Now(),
				Placement: node, Job: j.Name, Target: len(plan.NewTaskMasks), Running: len(plan.Shrinks),
			})
		}
		// pre_launch: reserve the new tasks' CPUs via DROM_PreInit with
		// the steal flag. PreInit itself stages the victims' shrinks
		// (to exactly the masks launch_request planned, since the new
		// masks are the complement of the planned keeps) and records
		// the thefts so post_term can return the CPUs.
		for _, mask := range plan.NewTaskMasks {
			pid := ctl.cluster.AllocPID()
			r.tasks = append(r.tasks, taskRef{pid: pid, ni: ni})
			if ctl.policy == PolicyOversubscribe {
				// No reservation: the task will register directly with
				// an overlapping mask, outside the controller's sight.
				ctl.invalidateNode(ni)
			} else {
				// A reservation outside the effective-free set steals
				// from co-located jobs, changing their widths too.
				if !ctl.nodeFreeOK[ni] || !mask.IsSubsetOf(ctl.nodeFree[ni]) {
					ctl.invalidateJobsOn(ni)
				}
				// A lost reservation cannot simply be absorbed the way
				// other registry faults are: the launch is committed, so
				// the task WILL register in LaunchLatency, and without
				// the PreInit entry (and its victim shrinks) its mask
				// overlaps whatever the scheduler grants meanwhile —
				// poisoning every later SetProcessMask with ErrPerm.
				// Retry until the reservation is durable. If an earlier
				// attempt landed the entry but lost the victim shrinks
				// (partial staging inside PreInit), the retry reports
				// ErrAlreadyInit; SetProcessMask with steal finishes
				// exactly the missing staging on the existing entry.
				code := admin.PreInit(pid, mask, core.FlagSteal)
				for try := 0; try < preInitRetries && ctl.shmemFault(ni, code); try++ {
					ctl.protocol(obs.StepPreLaunchRetry, ni, j.Name, pid, mask)
					code = admin.PreInit(pid, mask, core.FlagSteal)
					if code == derr.ErrAlreadyInit {
						code = admin.SetProcessMask(pid, mask, core.FlagSteal)
					}
				}
				if code.IsError() {
					ctl.failPreInit(pid, ni, code)
				} else {
					// The reserved CPUs leave the node's effective-free
					// set now (a steal shrinks the victims by exactly
					// this mask, so the delta holds either way).
					ctl.noteUsed(ni, mask)
					ctl.protocol(obs.StepPreLaunch, ni, j.Name, pid, mask)
				}
			}
			placements = append(placements, apps.Placement{
				Node: node, Sys: ctl.cluster.SystemAt(ni), PID: pid, InitialMask: mask,
			})
		}
	}

	ctl.placeBuf = placements
	if resumed {
		// Resume from the checkpoint after the launch latency, paying the
		// restart cost (evResume rebuilds the placements from r.tasks).
		ctl.addRunning(r)
		ctl.trackAfter(ctl.LaunchLatency, pendEv{kind: evResume, seq: r.seq})
		return
	}

	inst := r.inst
	if err := inst.Reset(j.Spec, j.Cfg, j.Iters, j.Name,
		ctl.cluster.Engine, ctl.cluster.Demand, ctl.cluster.Tracer, placements); err != nil {
		ctl.fail(err)
		return
	}
	inst.FinalizeExternally = true
	inst.OnComplete = r.onComplete
	ctl.addRunning(r)

	// srun/slurmstepd latency, then the task starts (DLB_Init).
	ctl.trackAfter(ctl.LaunchLatency, pendEv{kind: evStart, seq: r.seq})
	// A fault-annotated job dies FailAfter seconds into its run: the
	// interrupt fires whether or not the job was shrunk or expanded in
	// the meantime — elongated iterations do not postpone a failure.
	// (A job preempted before the interrupt is requeued under a new
	// seq, so the stale interrupt is a no-op; the fault is not
	// re-armed across a checkpoint restart.)
	if j.FailAfter > 0 {
		ctl.trackAfter(ctl.LaunchLatency+j.FailAfter, pendEv{kind: evInterrupt, seq: r.seq})
	}
}

// emitJobStart reports r's launch (KindJobStart) with its placement.
//
//simvet:guarded the one call site sits under launch's Probe != nil check
//simvet:coldpath probe-only, so the placement string is built off the disabled path
func (ctl *Controller) emitJobStart(r *runningJob) {
	ctl.Probe.Emit(obs.Event{
		Kind: obs.KindJobStart, Time: ctl.cluster.Engine.Now(),
		Job: r.job.Name, Seq: r.seq,
		Partition: ctl.cluster.Spec.Partitions[r.pidx].Name,
		Origin:    ctl.originOf(r.pidx, r.homePidx),
		Nodes:     len(r.nodeAt), CPUs: r.curCPUs,
		Placement: ctl.placement(r.nodeAt),
	})
}

// placement names the nodes of an allocation, comma-separated: a
// single node's name as it is, several joined in ctl.placeName, so the
// only allocation is the resulting string.
func (ctl *Controller) placement(nodeAt []int) string {
	if len(nodeAt) == 1 {
		return ctl.cluster.Nodes[nodeAt[0]]
	}
	b := ctl.placeName[:0]
	for k, ni := range nodeAt {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, ctl.cluster.Nodes[ni]...)
	}
	ctl.placeName = b
	return string(b)
}

// failPreInit fails the controller on a launch reservation the
// registry refused, or kept losing.
//
//simvet:coldpath error path
func (ctl *Controller) failPreInit(pid shmem.PID, ni int, code derr.Code) {
	node := ctl.cluster.Nodes[ni]
	if code == derr.ErrNoShmem {
		ctl.fail(fmt.Errorf("slurm: PreInit pid %d on %s: reservation lost after %d retries: %w",
			pid, node, preInitRetries, code))
		return
	}
	ctl.fail(fmt.Errorf("slurm: PreInit pid %d on %s: %w", pid, node, code))
}

// placementsOf rebuilds r's rank placements from its task list (rank
// order), in controller-owned scratch. Each initial mask is read back
// from the task's DROM entry: launch reserved it with DROM_PreInit, and
// registration honours a reservation over whatever mask the process
// supplies.
func (ctl *Controller) placementsOf(r *runningJob) []apps.Placement {
	pls := ctl.placeBuf[:0]
	for _, t := range r.tasks {
		var mask cpuset.CPUSet
		if e, code := ctl.admins[t.ni].Peek(t.pid); !code.IsError() {
			mask = e.EffectiveMask()
		}
		pls = append(pls, apps.Placement{Node: ctl.cluster.Nodes[t.ni], Sys: ctl.cluster.SystemAt(t.ni), PID: t.pid, InitialMask: mask})
	}
	ctl.placeBuf = pls
	return pls
}

// interruptRunning ends a running job prematurely (mid-run failure or
// scancel from a fault-annotated trace): the instance stops at the
// current virtual time, its tasks are finalized and its CPUs freed
// through the normal termination path, and the job is recorded with
// its FailOutcome. A seq that no longer names a running job — the job
// completed first, or was preempted and requeued — is a no-op.
func (ctl *Controller) interruptRunning(seq int) {
	r, ok := ctl.rBySeq[seq]
	if !ok {
		return
	}
	outcome := r.job.FailOutcome
	if outcome == metrics.OutcomeCompleted {
		outcome = metrics.OutcomeFailed
	}
	r.inst.Stop()
	ctl.endJob(r, ctl.cluster.Engine.Now(), outcome)
}

// onJobEnd implements post_term + release_resources for a normal
// completion.
func (ctl *Controller) onJobEnd(r *runningJob, end float64) {
	ctl.endJob(r, end, metrics.OutcomeCompleted)
}

// finalizeTasks implements post_term for every task of r:
// DROM_PostFinalize returns stolen CPUs to their original owners when
// they still run, and the incremental free accounting is maintained
// (noteFreed for clean holdings, a lazy node re-scan after ambiguous
// redistribution). Shared by normal termination and the node-failure
// kill path; ErrNoProc is tolerated so it also cleans up tasks whose
// instance already unregistered (checkpoint stop) or that never
// registered (killed inside the launch-latency window — their PreInit
// reservations are released here).
func (ctl *Controller) finalizeTasks(r *runningJob) {
	for _, t := range r.tasks {
		admin := ctl.admins[t.ni]
		// Maintain the incremental free accounting: a task that held no
		// stolen CPUs returns exactly its effective mask to the pool; a
		// task with thefts redistributes to victims, so the node is
		// re-scanned lazily instead.
		// Read the entry before PostFinalize reuses the Admin's scratch.
		e, icode := admin.Peek(t.pid)
		redistributes, held := icode.IsError() || len(e.Stolen) > 0, e.EffectiveMask()
		if code := admin.PostFinalize(t.pid, core.FlagReturnStolen); code.IsError() && code != derr.ErrNoProc {
			if !ctl.shmemFault(t.ni, code) {
				ctl.failPostFinalize(t.pid, code)
			}
		}
		if redistributes {
			ctl.invalidateNode(t.ni)
		} else {
			ctl.noteFreed(t.ni, held)
		}
		ctl.protocol(obs.StepPostTerm, t.ni, r.job.Name, t.pid, cpuset.CPUSet{})
	}
}

// failPostFinalize fails the controller on a post_term the registry
// refused.
//
//simvet:coldpath error path
func (ctl *Controller) failPostFinalize(pid shmem.PID, code derr.Code) {
	ctl.fail(fmt.Errorf("slurm: PostFinalize pid %d: %w", pid, code))
}

// recordEnd books r's lifecycle record and emits the KindJobEnd probe
// event.
func (ctl *Controller) recordEnd(r *runningJob, end float64, outcome metrics.Outcome) {
	ctl.Records.Add(metrics.JobRecord{
		Name: r.job.Name, Submit: r.submit, Start: r.start, End: end,
		Partition: ctl.cluster.Spec.Partitions[r.pidx].Name,
		Origin:    ctl.originOf(r.pidx, r.homePidx), Outcome: outcome,
	})
	if ctl.Probe != nil {
		ctl.Probe.Emit(obs.Event{
			Kind: obs.KindJobEnd, Time: end,
			Job: r.job.Name, Seq: r.seq,
			Partition: ctl.cluster.Spec.Partitions[r.pidx].Name,
			Origin:    ctl.originOf(r.pidx, r.homePidx),
			Outcome:   outcome.String(),
		})
	}
}

// endJob implements post_term + release_resources, recording the
// given outcome, and recycles r: the caller — the instance's completion
// hook, an interrupt, an scancel — must not read r again.
//
//simvet:hotpath
func (ctl *Controller) endJob(r *runningJob, end float64, outcome metrics.Outcome) {
	ctl.finalizeTasks(r)
	ctl.removeRunning(r)
	ctl.recordEnd(r, end, outcome)
	// release_resources: expand surviving jobs into the freed CPUs.
	// With a sched.Policy installed, expansion is that policy's call
	// (malleable-expand emits explicit actions; EASY/FCFS stay rigid).
	if ctl.policy == PolicyDROM && ctl.scheds == nil {
		for _, ni := range r.nodeAt {
			ctl.releaseResources(ni)
		}
	}
	// Freed capacity may unblock the queue.
	ctl.kick()
	if ctl.ServeEvolving {
		ctl.ServeEvolvingRequests()
	}
	ctl.releaseRunning(r)
}

// Cancel kills a job (scancel): a queued job is dropped; a running job
// is stopped immediately, its tasks finalized and its CPUs
// redistributed. The job is recorded with its end at the current time.
// Returns false if the job is unknown.
//
// No two live jobs share a name — SWF, DJSB and UC scenarios name jobs
// uniquely, and schedd refuses a name it has seen — so the walk may go
// partition by partition, each view's queued entries before its
// running ones.
func (ctl *Controller) Cancel(name string) bool {
	for pi := range ctl.views {
		v := &ctl.views[pi]
		for _, q := range v.qjobs {
			if q.job.Name != name {
				continue
			}
			ctl.dequeue(q)
			ctl.Records.Add(metrics.JobRecord{
				Name: name, Submit: q.submit,
				Start: ctl.cluster.Engine.Now(), End: ctl.cluster.Engine.Now(),
				Partition: ctl.cluster.Spec.Partitions[q.pidx].Name,
				Origin:    ctl.originOf(q.pidx, q.homePidx),
				Outcome:   metrics.OutcomeCancelled,
			})
			if ctl.Probe != nil {
				ctl.Probe.Emit(obs.Event{
					Kind: obs.KindJobEnd, Time: ctl.cluster.Engine.Now(),
					Job: name, Seq: q.seq,
					Partition: ctl.cluster.Spec.Partitions[q.pidx].Name,
					Origin:    ctl.originOf(q.pidx, q.homePidx),
					Outcome:   metrics.OutcomeCancelled.String(),
				})
			}
			// The queue shortened: the head may have changed, and a
			// policy reservation computed against the old head is moot.
			ctl.kick()
			return true
		}
		for _, r := range v.rjobs {
			if r.job.Name == name {
				r.inst.Stop()
				ctl.endJob(r, ctl.cluster.Engine.Now(), metrics.OutcomeCancelled)
				return true
			}
		}
	}
	return false
}

// ServeEvolvingRequests scans every node for evolving-application
// resize requests (§2's PMIx-style model, complementary to DROM) and
// grants what the current state allows: shrinks immediately, grows
// bounded by the node's free CPUs. Called automatically on job
// completion when ServeEvolving is set, or explicitly by the operator.
//
//simvet:coldpath evolving-application scenarios only (ServeEvolving), and the request list is allocated by the registry
func (ctl *Controller) ServeEvolvingRequests() {
	for ni, node := range ctl.cluster.Nodes {
		// A down or draining node grants nothing: its free CPUs are out
		// of service, and shrink requests keep until it returns.
		if !ctl.nodeUp(ni) {
			continue
		}
		admin := ctl.admins[ni]
		reqs, code := admin.ResizeRequests()
		if code.IsError() {
			continue
		}
		for _, req := range reqs {
			e, code := admin.Inspect(req.PID)
			if code.IsError() {
				continue
			}
			cur := e.EffectiveMask()
			machine := ctl.cluster.MachineOfNode(ni)
			var next cpuset.CPUSet
			if req.Want < req.Current {
				next = machine.SocketAwarePick(cur, req.Want)
			} else {
				free := ctl.cluster.SystemAt(ni).Segment().FreeMask()
				extra := machine.SocketAwarePick(free, req.Want-req.Current)
				if extra.IsEmpty() {
					continue // nothing to grant now
				}
				next = cur.Or(extra)
			}
			if next.IsEmpty() || next.Equal(cur) {
				continue
			}
			if code := admin.SetProcessMask(req.PID, next, core.FlagNone); code.IsError() {
				if !ctl.shmemFault(ni, code) {
					ctl.fail(fmt.Errorf("slurm: evolving grant pid %d on %s: %w", req.PID, node, code))
				}
				continue
			}
			ctl.invalidateNode(ni)
			ctl.protocol(obs.StepEvolvingGrant, ni, "", req.PID, next)
		}
	}
}

// releaseResources redistributes the free CPUs of the node at global
// index ni to running malleable jobs below their request (Figure 2 step 5, using
// GetPidList/GetProcessMask/SetProcessMask), planning into
// controller-owned scratch.
func (ctl *Controller) releaseResources(ni int) {
	if !ctl.nodeUp(ni) {
		return // an out-of-service node redistributes nothing
	}
	admin := ctl.admins[ni]
	free := ctl.cluster.SystemAt(ni).Segment().FreeMask()
	if free.IsEmpty() {
		return
	}
	if ctl.grown == nil {
		ctl.grown = make(map[shmem.PID]cpuset.CPUSet)
	}
	grown := ctl.grown
	ctl.plan.expand(ctl.cluster.MachineOfNode(ni), ctl.jobsOn(ni), free, grown)
	// Apply in PID order: the protocol events and the first error
	// surfaced through ctl.fail must not depend on map iteration.
	pids := ctl.grownPIDs[:0]
	for pid := range grown { //simvet:ordered keys collected and sorted below
		pids = append(pids, int(pid))
	}
	sort.Ints(pids)
	ctl.grownPIDs = pids
	for _, p := range pids {
		pid := shmem.PID(p)
		mask := grown[pid]
		// Preserve any pending staged mask: grow from the effective value.
		if e, code := admin.Peek(pid); !code.IsError() {
			mask = e.EffectiveMask().Or(mask.AndNot(e.CurrentMask))
		}
		if code := admin.SetProcessMask(pid, mask, core.FlagNone); code.IsError() {
			if !ctl.shmemFault(ni, code) {
				ctl.failExpand(pid, mask, ni, code)
			}
			continue
		}
		ctl.protocol(obs.StepReleaseResources, ni, "", pid, mask)
	}
	if len(grown) > 0 {
		ctl.invalidateNode(ni)
	}
}

// failExpand fails the controller on a release_resources expansion the
// registry refused.
//
//simvet:coldpath error path
func (ctl *Controller) failExpand(pid shmem.PID, mask cpuset.CPUSet, ni int, code derr.Code) {
	ctl.fail(fmt.Errorf("slurm: expand pid %d to %s on %s: %w", pid, mask, ctl.cluster.Nodes[ni], code))
}
