package slurm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cpuset"
	"repro/internal/hwmodel"
	"repro/internal/obs"
	"repro/internal/sched"
)

// This file connects the controller to the pluggable scheduling
// subsystem (internal/sched). The policy reasons on a capacity
// snapshot; every action it returns is executed through the real DROM
// machinery:
//
//	start   → DROM_PreInit reservations on effectively-free CPUs,
//	          then the normal Figure-2 launch
//	shrink  → DROM_SetProcessMask with the smaller mask, applied at
//	          the application's next DLB_PollDROM
//	expand  → DROM_SetProcessMask with the grown mask
//
// Sched-driven runs use shared-node, disjoint-mask placement: a job
// may land next to others, but only on CPUs no effective mask holds —
// malleability happens exclusively through explicit policy actions.

// UseSched installs a queue-ordering/admission policy, one instance
// per partition: partitions have independent node shapes and policies
// carry scratch buffers, so an instance must never serve two
// partitions. The given instance drives the first partition; every
// further partition gets its own p.ClonePolicy(). nil reverts to the
// builtin planner.
//
// Sched-driven runs require disjoint-mask placement, and the
// incremental free-CPU accounting cannot see oversubscribed
// registrations (they attach outside the controller, LaunchLatency
// after the launch): PolicyOversubscribe is rejected.
func (ctl *Controller) UseSched(p sched.Policy) {
	if p == nil {
		ctl.scheds = nil
		return
	}
	// The installer only fails when newFor does.
	_ = ctl.installScheds(func(pi int) (sched.Policy, error) {
		if pi == 0 {
			return p, nil
		}
		return p.ClonePolicy(), nil
	})
}

// UseSchedSet installs per-partition policies from a sched.PolicySet
// (the `-sched batch=easy,fat=malleable-shrink` grammar): every
// partition gets a fresh instance of the policy the set assigns it.
// An error is returned when some partition has neither an entry nor a
// default.
func (ctl *Controller) UseSchedSet(ps sched.PolicySet) error {
	return ctl.installScheds(func(pi int) (sched.Policy, error) {
		return ps.NewFor(ctl.cluster.Spec.Partitions[pi].Name)
	})
}

// installScheds is the one installer behind UseSched and UseSchedSet:
// newFor supplies the instance serving partition pi.
func (ctl *Controller) installScheds(newFor func(pi int) (sched.Policy, error)) error {
	if ctl.policy == PolicyOversubscribe {
		panic("slurm: sched policies require disjoint-mask placement; PolicyOversubscribe is unsupported")
	}
	scheds := make([]sched.Policy, 0, len(ctl.cluster.Spec.Partitions))
	for pi := range ctl.cluster.Spec.Partitions {
		p, err := newFor(pi)
		if err != nil {
			return err
		}
		scheds = append(scheds, p)
	}
	ctl.scheds = scheds
	return nil
}

// nodeUp reports whether the node at global index i is in service
// (always, when no fault plan is installed).
func (ctl *Controller) nodeUp(i int) bool {
	return ctl.nfState == nil || ctl.nfState[i] == hwmodel.NodeUp
}

// scanFree reads node i's effective-free mask from shared memory.
func (ctl *Controller) scanFree(i int) cpuset.CPUSet {
	return ctl.nodeMasks[i].AndNot(ctl.cluster.SystemAt(i).Segment().EffectiveUsedMask())
}

// refreshFree re-scans node i's effective-free mask from shared memory
// when an ambiguous mutation invalidated the cached one.
func (ctl *Controller) refreshFree(i int) {
	if !ctl.nodeFreeOK[i] {
		ctl.nodeFree[i] = ctl.scanFree(i)
		ctl.nodeFreeN[i] = ctl.nodeFree[i].Count()
		ctl.nodeFreeOK[i] = true
	}
}

// effectiveFree returns the CPUs of the node at global index i no
// process effectively holds: a staged-but-unapplied mask change (dirty
// future) is already binding — the CPUs it drops are free to promise,
// the CPUs it gains are taken.
//
// The value is served from the controller's per-node cache. The cache
// is maintained incrementally at the points where effective masks
// change under the controller's hand — launch reservations (PreInit),
// shrink/expand staging (SetProcessMask) and job termination
// (PostFinalize) — and re-scanned lazily from shared memory only for
// nodes an ambiguous mutation (steal redistribution, checkpoint stop,
// evolving grant) invalidated.
//
// Failure-domain overlay: a down or draining node exposes no free CPUs
// to any consumer (placement, spillover, reservations, the invariant
// check). The underlying cache keeps tracking the true shared-memory
// state — drain residents still noteFreed through it — and
// nodeRepair/drainEnd force a re-scan when the node returns.
func (ctl *Controller) effectiveFree(i int) cpuset.CPUSet {
	if !ctl.nodeUp(i) {
		return cpuset.CPUSet{}
	}
	ctl.refreshFree(i)
	return ctl.nodeFree[i]
}

// freeCount is effectiveFree(i).Count(), served from the popcount
// cached beside the mask.
func (ctl *Controller) freeCount(i int) int {
	if !ctl.nodeUp(i) {
		return 0
	}
	ctl.refreshFree(i)
	return ctl.nodeFreeN[i]
}

// noteUsed removes mask from node i's cached effective-free set.
func (ctl *Controller) noteUsed(i int, mask cpuset.CPUSet) {
	if ctl.nodeFreeOK[i] {
		ctl.nodeFree[i] = ctl.nodeFree[i].AndNot(mask)
		ctl.nodeFreeN[i] = ctl.nodeFree[i].Count()
	}
}

// noteFreed returns mask to node i's cached effective-free set.
func (ctl *Controller) noteFreed(i int, mask cpuset.CPUSet) {
	if ctl.nodeFreeOK[i] {
		ctl.nodeFree[i] = ctl.nodeFree[i].Or(mask)
		ctl.nodeFreeN[i] = ctl.nodeFree[i].Count()
	}
}

// invalidateWidth clears r's cached allocation width and marks its
// partition's view so the next snapshot re-reads the entry.
func (ctl *Controller) invalidateWidth(r *runningJob) {
	r.curOK = false
	ctl.views[r.pidx].widthsDirty = true
}

// invalidateJobsOn clears the cached allocation width of every running
// job with tasks on the node at global index i.
func (ctl *Controller) invalidateJobsOn(i int) {
	for _, r := range ctl.views[ctl.cluster.partOf[i]].rjobs {
		if r.curOK && r.hasNode(i) {
			ctl.invalidateWidth(r)
		}
	}
}

// invalidateNode drops both node i's cached effective-free mask and
// the cached widths of the jobs running there; the next consumer
// re-derives them from shared memory.
func (ctl *Controller) invalidateNode(i int) {
	ctl.nodeFreeOK[i] = false
	ctl.invalidateJobsOn(i)
}

// runningCPUs returns r's effective per-node CPU allocation (max over
// its nodes of the summed effective task masks), recomputing it from
// shared memory only when a mask-affecting event invalidated the
// cached value.
func (ctl *Controller) runningCPUs(r *runningJob) int {
	if r.curOK {
		return r.curCPUs
	}
	cur := 0
	for _, ni := range r.nodeAt {
		n := 0
		for _, t := range r.tasks {
			if t.ni != ni {
				continue
			}
			if e, code := ctl.admins[ni].Peek(t.pid); !code.IsError() {
				n += e.EffectiveMask().Count()
			}
		}
		if n > cur {
			cur = n
		}
	}
	r.curCPUs, r.curOK = cur, true
	return cur
}

// schedCycle is the cycle skeleton every mode runs through: the
// KindCycleStart/End probe points around one of the two planners — the
// builtin mask-level planner (no sched policy installed) or the
// per-partition policy passes.
//
//simvet:hotpath
func (ctl *Controller) schedCycle() {
	// probe != nil is the only cost the disabled path pays per probe
	// point; wall clocks are read, snapshot totals summed and events
	// built only when a probe is installed.
	probe := ctl.Probe
	var cycleT0 time.Time
	if probe != nil {
		cycleT0 = time.Now() //simvet:wallclock probe-only cycle timing, never reaches decisions
		probe.Emit(obs.Event{
			Kind: obs.KindCycleStart, Time: ctl.cluster.Engine.Now(),
			Queue: ctl.QueueLen(), Running: ctl.RunningLen(),
			Processed: ctl.cluster.Engine.Processed(),
			Skipped:   ctl.cluster.Engine.Skipped(),
		})
	}
	skipped := false
	if ctl.scheds == nil {
		ctl.planBuiltin()
		ctl.emitSnapshots()
		if ctl.DebugInvariants {
			ctl.checkViews()
		}
	} else {
		skipped = ctl.planPolicies(probe)
	}
	if probe != nil {
		probe.Emit(obs.Event{
			Kind: obs.KindCycleEnd, Time: ctl.cluster.Engine.Now(),
			Queue: ctl.QueueLen(), Running: ctl.RunningLen(),
			WallNanos: time.Since(cycleT0).Nanoseconds(),
		})
	}
	if skipped {
		ctl.rearmAfterSkip()
	}
}

// emitSnapshots reports each partition's state after a builtin cycle
// (KindSnapshot: the counters a policy pass reports as KindPass, for
// the planner that makes no Schedule() call). Free CPUs are scanned,
// not served from the effective-free cache: the builtin planner does
// not keep it current (an oversubscribed task registers outside its
// sight).
func (ctl *Controller) emitSnapshots() {
	if ctl.Probe == nil {
		return
	}
	parts := ctl.cluster.Spec.Partitions
	for pi := range parts {
		ev := obs.Event{
			Kind: obs.KindSnapshot, Time: ctl.cluster.Engine.Now(), Partition: parts[pi].Name,
			Queue: len(ctl.views[pi].qjobs), Running: len(ctl.views[pi].rjobs),
		}
		lo := ctl.cluster.Spec.NodeOffset(pi)
		for ni := lo; ni < lo+parts[pi].Nodes; ni++ {
			ev.Cores += ctl.nodeMasks[ni].Count()
			if ctl.nodeUp(ni) {
				ev.Free += ctl.scanFree(ni).Count()
			}
		}
		ctl.Probe.Emit(ev)
	}
}

// planPolicies is the sched planner: one policy pass per partition,
// each pass's actions executed in order before the next partition is
// snapshotted, then the spillover pass. Partitions are fully
// independent capacity domains: the policy never sees two node shapes
// in one State, and actions carry partition-local node indices. An
// action that no longer applies (the capacity model is coarser than
// mask-level placement) is skipped and the job stays queued — but the
// skip is reported so the skeleton re-arms one follow-up cycle at the
// current timestamp, and capacity freed by actions that did execute
// (say, a shrink paired with a start that lost the race) is re-planned
// immediately instead of idling until the next job event.
func (ctl *Controller) planPolicies(probe obs.Probe) (skipped bool) {
	for pi := range ctl.cluster.Spec.Partitions {
		ctl.Cycles++
		st := ctl.snapshotPartition(pi)
		var acts []sched.Action
		if probe == nil {
			acts = ctl.scheds[pi].Schedule(st)
		} else {
			passT0 := time.Now() //simvet:wallclock probe-only pass timing, never reaches decisions
			acts = ctl.scheds[pi].Schedule(st)
			wall := time.Since(passT0).Nanoseconds()
			free := 0
			for _, f := range st.Free {
				if f > 0 { // skip the -1 unavailable-node sentinel
					free += f
				}
			}
			probe.Emit(obs.Event{
				Kind: obs.KindPass, Time: st.Now, Partition: st.Partition,
				Queue: len(st.Queue), Running: len(st.Running),
				Free: free, Cores: st.CoresPerNode * len(st.Free),
				WallNanos: wall,
			})
		}
		for _, a := range acts {
			switch a.Kind {
			case sched.ActStart:
				q, ok := ctl.qBySeq[a.ID]
				name := ""
				if ok {
					name = q.job.Name // a start recycles q
				}
				started := ok && q.pidx == pi && ctl.startQueued(q, pi, a.TargetCPUsPerNode, a.Nodes)
				if !started {
					skipped = true
				}
				if probe != nil {
					ev := obs.Event{
						Kind: obs.KindAction, Act: obs.ActStart, Reason: obs.ReasonStarted,
						Time: st.Now, Partition: st.Partition, Seq: a.ID, Job: name,
						Target: a.TargetCPUsPerNode, Nodes: len(a.Nodes),
					}
					if !started {
						ev.Reason = obs.ReasonSkipped
					}
					probe.Emit(ev)
				}
			case sched.ActShrink:
				// r.pidx must match: a policy may only resize jobs of the
				// partition it was invoked for (targets are computed
				// against that partition's node shape).
				r, ok := ctl.rBySeq[a.ID]
				if ok && r.pidx == pi {
					ctl.shrinkRunning(r, a.TargetCPUsPerNode)
				} else {
					skipped = true
				}
				if probe != nil {
					ctl.emitResize(probe, obs.ActShrink, st, a, r, ok && r.pidx == pi)
				}
			case sched.ActExpand:
				r, ok := ctl.rBySeq[a.ID]
				if ok && r.pidx == pi {
					ctl.expandRunning(r, a.TargetCPUsPerNode)
				} else {
					skipped = true
				}
				if probe != nil {
					ctl.emitResize(probe, obs.ActExpand, st, a, r, ok && r.pidx == pi)
				}
			}
		}
	}
	if ctl.Spillover {
		ctl.spillPass()
	}
	if ctl.DebugInvariants {
		ctl.checkFreeInvariant()
	}
	return skipped
}

// emitResize reports one shrink/expand action outcome.
//
//simvet:guarded all call sites sit under the cycle's probe != nil check
func (ctl *Controller) emitResize(probe obs.Probe, act obs.Act, st *sched.State, a sched.Action, r *runningJob, applied bool) {
	ev := obs.Event{
		Kind: obs.KindAction, Act: act, Reason: obs.ReasonStarted,
		Time: st.Now, Partition: st.Partition, Seq: a.ID,
		Target: a.TargetCPUsPerNode,
	}
	if r != nil {
		ev.Job = r.job.Name
	}
	if !applied {
		ev.Reason = obs.ReasonSkipped
	}
	probe.Emit(ev)
}

// rearmAfterSkip schedules one follow-up cycle at the current time. At
// most one re-arm fires per timestamp: a plan the executor keeps
// rejecting must not loop forever within a single instant.
func (ctl *Controller) rearmAfterSkip() {
	now := ctl.cluster.Engine.Now()
	if ctl.rearmedAt == now {
		return
	}
	ctl.rearmedAt = now
	ctl.kick()
}

// checkFreeInvariant cross-checks the incremental accounting against a
// full shared-memory re-scan: every node's cached effective-free count
// must match the rescan and stay within [0, CoresPerNode], every
// cached job width must match a fresh task-mask walk, and every
// partition's view must agree with its records (checkViews).
//
//simvet:coldpath debug-only cross-check behind DebugInvariants
func (ctl *Controller) checkFreeInvariant() {
	for i, node := range ctl.cluster.Nodes {
		cores := ctl.cluster.MachineOfNode(i).CoresPerNode()
		got := ctl.effectiveFree(i)
		want := ctl.scanFree(i)
		if !ctl.nodeUp(i) {
			// The overlay hides out-of-service nodes from every consumer;
			// the invariant is that they expose zero capacity.
			want = cpuset.CPUSet{}
		}
		if !got.Equal(want) {
			ctl.fail(fmt.Errorf("slurm: invariant: node %s cached effective-free %s, re-scan says %s", node, got, want))
		}
		if n := got.Count(); n < 0 || n > cores {
			ctl.fail(fmt.Errorf("slurm: invariant: node %s free count %d outside [0,%d]", node, n, cores))
		}
		if ctl.nodeFreeOK[i] && ctl.nodeFreeN[i] != ctl.nodeFree[i].Count() {
			ctl.fail(fmt.Errorf("slurm: invariant: node %s cached popcount %d, mask %s holds %d",
				node, ctl.nodeFreeN[i], ctl.nodeFree[i], ctl.nodeFree[i].Count()))
		}
	}
	for pi := range ctl.views {
		for _, r := range ctl.views[pi].rjobs {
			if !r.curOK {
				continue
			}
			cached := r.curCPUs
			r.curOK = false
			if fresh := ctl.runningCPUs(r); fresh != cached {
				ctl.fail(fmt.Errorf("slurm: invariant: job %s cached width %d, task masks say %d", r.job.Name, cached, fresh))
			}
		}
	}
	ctl.checkViews()
}

// startCand is a placement candidate of startQueued: a node by global
// index with its effective-free mask and that mask's popcount.
type startCand struct {
	ni   int
	free cpuset.CPUSet
	n    int
}

// The NodeSelection orders of startQueued's candidates: most
// effectively-free CPUs first, or fewest when packed.
func startFreestFirst(a, b startCand) int { return cmp.Compare(b.n, a.n) }
func startPackedFirst(a, b startCand) int { return cmp.Compare(a.n, b.n) }

// freeCandsSorted collects the nodes of partition pi with at least
// need effectively-free CPUs into the startCands scratch and orders
// them per the NodeSelection policy (a stable sort by free count that
// allocates nothing; ties keep partition order). Shared by
// startQueued's unpinned path and the spillover placement so the two
// can never disagree on node selection.
func (ctl *Controller) freeCandsSorted(pi, need int) []startCand {
	cands := ctl.startCands[:0]
	lo := ctl.cluster.Spec.NodeOffset(pi)
	for ni := lo; ni < lo+ctl.cluster.Spec.Partitions[pi].Nodes; ni++ {
		if n := ctl.freeCount(ni); n >= need {
			cands = append(cands, startCand{ni, ctl.effectiveFree(ni), n})
		}
	}
	order := startFreestFirst
	if ctl.NodeSelection == SelectPacked {
		order = startPackedFirst
	}
	slices.SortStableFunc(cands, order)
	ctl.startCands = cands
	return cands
}

// startQueued places q on effectively-free CPUs of partition pi — its
// own, or the host of a spill — at target per-node CPUs when the
// policy admits it shrunk (0 = full request), on the pinned
// partition-local node indices when the policy budgeted specific nodes
// (an EASY reservation is only starvation-safe on exactly those), and
// launches it through the Figure-2 protocol. Returns false, with q
// still queued where it was, when placement fails; true means q is
// gone — launch recycled it — and the caller must not read it again.
//
//simvet:coldpath per start action; steady-state cycles take no actions
func (ctl *Controller) startQueued(q *queuedJob, pi, target int, pinned []int) bool {
	j := q.job
	part := ctl.cluster.Spec.Partitions[pi]
	offset := ctl.cluster.Spec.NodeOffset(pi)
	machine := part.Machine
	need := j.CPUsPerNode()
	if target > 0 && target < need {
		need = target
	}
	if min := j.RanksPerNode(); need < min {
		need = min
	}
	// cands is controller-owned scratch; every exit path below must
	// store the (possibly re-allocated) slice back into ctl.startCands,
	// or an early return after appends grew the backing array would
	// silently drop the capacity and re-allocate on later cycles.
	cands := ctl.startCands[:0]
	if len(pinned) > 0 {
		// A duplicated index would pass the width check below while
		// the per-node plans silently collapse onto fewer nodes: reject
		// the action instead of trusting the policy. A node is seen
		// when its mark holds this call's generation.
		if ctl.pinSeen == nil {
			ctl.pinSeen = make([]uint32, len(ctl.cluster.Nodes))
		}
		if ctl.pinGen++; ctl.pinGen == 0 {
			clear(ctl.pinSeen)
			ctl.pinGen = 1
		}
		for _, idx := range pinned {
			if idx < 0 || idx >= part.Nodes {
				ctl.startCands = cands
				return false
			}
			if ctl.pinSeen[offset+idx] == ctl.pinGen {
				ctl.startCands = cands
				return false
			}
			ctl.pinSeen[offset+idx] = ctl.pinGen
			n := ctl.freeCount(offset + idx)
			if n < need {
				ctl.startCands = cands
				return false // capacity raced away; stay queued
			}
			cands = append(cands, startCand{offset + idx, ctl.effectiveFree(offset + idx), n})
		}
		ctl.startCands = cands
		if len(cands) != j.Nodes {
			return false
		}
	} else {
		cands = ctl.freeCandsSorted(pi, need)
		if len(cands) < j.Nodes {
			return false
		}
		cands = cands[:j.Nodes]
	}
	// Order the chosen nodes by name.
	rank := ctl.cluster.nameRank
	slices.SortFunc(cands, func(a, b startCand) int { return cmp.Compare(rank[a.ni], rank[b.ni]) })
	// Plan into scratch: the job record is only allocated (by launch)
	// once every node's masks are known to fit.
	for len(ctl.planBuf) < len(cands) {
		ctl.planBuf = append(ctl.planBuf, LaunchPlan{})
	}
	plans := ctl.planBuf[:len(cands)]
	nodeAt := ctl.launchAt[:0]
	for k, c := range cands {
		avail := c.free
		plan := &plans[k]
		plan.NewTaskMasks = plan.NewTaskMasks[:0]
		ctl.splitBuf = splitEvenInto(ctl.splitBuf, need, j.RanksPerNode())
		for _, want := range ctl.splitBuf {
			mask := machine.SocketAwarePick(avail, want)
			if mask.IsEmpty() {
				return false
			}
			plan.NewTaskMasks = append(plan.NewTaskMasks, mask)
			avail = avail.AndNot(mask)
		}
		nodeAt = append(nodeAt, c.ni)
	}
	ctl.launchAt = nodeAt
	// The job leaves the queue of the partition it waited in and runs in
	// pi (the two differ exactly when a spill re-routes it).
	ctl.dequeue(q)
	q.pidx = pi
	ctl.launch(q, nodeAt, plans)
	return true
}

// shrinkRunning stages r down to target CPUs per node through
// DROM_SetProcessMask; each task keeps a socket-compact subset of its
// own mask and applies it at its next poll.
//
//simvet:coldpath per shrink action; steady-state cycles take no actions
func (ctl *Controller) shrinkRunning(r *runningJob, target int) {
	for _, ni := range r.nodeAt {
		node := ctl.cluster.Nodes[ni]
		refs := r.onNodeInto(ctl.refsBuf, ni)
		ctl.refsBuf = refs
		if len(refs) == 0 {
			continue
		}
		t := target
		if t < len(refs) {
			t = len(refs) // never below one CPU per task
		}
		machine := ctl.cluster.MachineOfNode(ni)
		cur := ctl.effectiveMasks(ni, refs)
		total := 0
		for _, m := range cur {
			total += m.Count()
		}
		if total <= t {
			continue
		}
		ctl.splitBuf = splitEvenInto(ctl.splitBuf, t, len(refs))
		per := ctl.splitBuf
		for i, ref := range refs {
			if cur[i].Count() <= per[i] {
				continue
			}
			keep := machine.SocketAwarePick(cur[i], per[i])
			if keep.IsEmpty() {
				continue
			}
			if code := ctl.admins[ni].SetProcessMask(ref.pid, keep, core.FlagNone); code.IsError() {
				if !ctl.shmemFault(ni, code) {
					ctl.fail(fmt.Errorf("slurm: sched shrink pid %d to %s on %s: %w", ref.pid, keep, node, code))
				}
				continue
			}
			// The dropped CPUs join the node's effective-free set the
			// moment the shrink is staged (a dirty future is binding).
			ctl.noteFreed(ni, cur[i].AndNot(keep))
			ctl.protocol(obs.StepSchedShrink, ni, r.job.Name, ref.pid, keep)
		}
	}
	ctl.invalidateWidth(r) // recompute the cached width on the next snapshot
}

// expandRunning grows r toward target CPUs per node from the node's
// effectively-free CPUs.
//
//simvet:coldpath per expand action; steady-state cycles take no actions
func (ctl *Controller) expandRunning(r *runningJob, target int) {
	for _, ni := range r.nodeAt {
		node := ctl.cluster.Nodes[ni]
		refs := r.onNodeInto(ctl.refsBuf, ni)
		ctl.refsBuf = refs
		if len(refs) == 0 {
			continue
		}
		machine := ctl.cluster.MachineOfNode(ni)
		free := ctl.effectiveFree(ni)
		cur := ctl.effectiveMasks(ni, refs)
		ctl.splitBuf = splitEvenInto(ctl.splitBuf, target, len(refs))
		per := ctl.splitBuf
		for i, ref := range refs {
			want := per[i] - cur[i].Count()
			if want <= 0 {
				continue
			}
			extra := machine.SocketAwarePick(free, want)
			if extra.IsEmpty() {
				continue
			}
			free = free.AndNot(extra)
			mask := cur[i].Or(extra)
			if code := ctl.admins[ni].SetProcessMask(ref.pid, mask, core.FlagNone); code.IsError() {
				if !ctl.shmemFault(ni, code) {
					ctl.fail(fmt.Errorf("slurm: sched expand pid %d to %s on %s: %w", ref.pid, mask, node, code))
				}
				continue
			}
			ctl.noteUsed(ni, extra)
			ctl.protocol(obs.StepSchedExpand, ni, r.job.Name, ref.pid, mask)
		}
	}
	ctl.invalidateWidth(r) // recompute the cached width on the next snapshot
}

// effectiveMasks returns the binding mask of each task on the node at
// global index ni: the staged future when dirty, the current mask
// otherwise. The returned slice is controller-owned scratch, valid
// until the next call.
func (ctl *Controller) effectiveMasks(ni int, refs []taskRef) []cpuset.CPUSet {
	if cap(ctl.maskBuf) < len(refs) {
		ctl.maskBuf = make([]cpuset.CPUSet, len(refs))
	}
	out := ctl.maskBuf[:len(refs)]
	for i := range out {
		out[i] = cpuset.CPUSet{}
	}
	for i, ref := range refs {
		if e, code := ctl.admins[ni].Peek(ref.pid); !code.IsError() {
			out[i] = e.EffectiveMask()
		}
	}
	return out
}

// ---------------------------------------------------------------------
// EASY head-reservation guard of the spillover pass
// ---------------------------------------------------------------------

// headReservation is the blocked head's claim on its partition: the
// shadow time when its nodes are projected free (per the running
// jobs' walltime estimates) and which nodes those are, by
// partition-local index. Instances are spillover-pass scratch (one per
// partition, see spillPart).
type headReservation struct {
	shadow float64
	nodes  []int
}

// resvNode pairs one node (partition-local index) with its projected
// free time for the reservation sort.
type resvNode struct {
	idx int
	at  float64
}

// resvNodeSorter orders by (free time, node name) without the
// allocation of a reflect-based sort; rank holds the partition's name
// ranks by local index (a window of the cluster's). Names are unique,
// so the order is total.
type resvNodeSorter struct {
	r    []resvNode
	rank []int32
}

func (s *resvNodeSorter) Len() int      { return len(s.r) }
func (s *resvNodeSorter) Swap(i, j int) { s.r[i], s.r[j] = s.r[j], s.r[i] }
func (s *resvNodeSorter) Less(i, j int) bool {
	if s.r[i].at != s.r[j].at {
		return s.r[i].at < s.r[j].at
	}
	return s.rank[s.r[i].idx] < s.rank[s.r[j].idx]
}

// reserveHead projects, per node of partition pi, when all current
// occupants have ended, and reserves the earliest-free nodes for the
// partition's queue head into rv. It reads the partition's view — the
// running set in launch order with partition-local node indices — and
// touches controller-owned scratch only: the spillover pass calls it
// inside the scheduling cycle.
func (ctl *Controller) reserveHead(pi int, rv *headReservation) {
	v := &ctl.views[pi]
	now := ctl.cluster.Engine.Now()
	offset := ctl.cluster.Spec.NodeOffset(pi)
	n := len(v.st.Free)
	if cap(ctl.resvFreeAt) < n {
		ctl.resvFreeAt = make([]float64, n)
	}
	freeAt := ctl.resvFreeAt[:n]
	for i := range freeAt {
		freeAt[i] = now
	}
	if ctl.nfState != nil {
		// An out-of-service node cannot host the head before its
		// repair/drain horizon: clamp its projected free time so the
		// reservation sees the shrunk partition.
		for i := range freeAt {
			switch ctl.nfState[offset+i] {
			case hwmodel.NodeDown:
				if u := ctl.nfDownUntil[offset+i]; u > freeAt[i] {
					freeAt[i] = u
				}
			case hwmodel.NodeDraining:
				if u := ctl.nfDrainUntil[offset+i]; u > freeAt[i] {
					freeAt[i] = u
				}
			}
		}
	}
	for k := range v.st.Running {
		r := &v.st.Running[k]
		end := r.EndEstimate()
		if end < now {
			end = now // overdue estimate: "ends any moment"
		}
		for _, i := range r.Nodes {
			if end > freeAt[i] {
				freeAt[i] = end
			}
		}
	}
	order := ctl.resvOrder[:0]
	for i, at := range freeAt {
		order = append(order, resvNode{idx: i, at: at})
	}
	ctl.resvOrder = order
	ctl.resvSorter.r, ctl.resvSorter.rank = order, ctl.cluster.nameRank[offset:offset+n]
	sort.Sort(&ctl.resvSorter)
	want := v.st.Queue[0].Nodes
	if want > len(order) {
		want = len(order)
	}
	rv.shadow = 0
	rv.nodes = rv.nodes[:0]
	for _, c := range order[:want] {
		rv.nodes = append(rv.nodes, c.idx)
		if c.at > rv.shadow {
			rv.shadow = c.at
		}
	}
}

// allows reports whether launching a job of the given walltime
// estimate on nodes (partition-local indices) now can delay the
// reserved head: a candidate is admitted when it is projected to end
// by the shadow time, or when it touches none of the reserved nodes.
func (rv *headReservation) allows(now, walltime float64, nodes []int) bool {
	if now+sched.EffectiveWalltime(walltime) <= rv.shadow {
		return true
	}
	for _, node := range nodes {
		for _, reserved := range rv.nodes {
			if node == reserved {
				return false
			}
		}
	}
	return true
}
