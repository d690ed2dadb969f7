package slurm

import (
	"fmt"
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

// SchedOf returns the policy instance of partition pi.
func (ctl *Controller) SchedOf(pi int) sched.Policy { return ctl.scheds[pi] }

// effectiveFree returns the node CPUs no process effectively holds: a
// staged-but-unapplied mask change (dirty future) is already binding —
// the CPUs it drops are free to promise, the CPUs it gains are taken.
//
// The value is served from the controller's per-node cache. The cache
// is maintained incrementally at the points where effective masks
// change under the controller's hand — launch reservations (PreInit),
// shrink/expand staging (SetProcessMask) and job termination
// (PostFinalize) — and re-scanned lazily from shared memory only for
// nodes an ambiguous mutation (steal redistribution, checkpoint stop,
// evolving grant) invalidated.
func (ctl *Controller) effectiveFree(node string) cpuset.CPUSet {
	i, ok := ctl.nodeIdx[node]
	if !ok {
		return cpuset.CPUSet{}
	}
	// Failure-domain overlay: a down or draining node exposes no free
	// CPUs to any consumer (placement, spillover, reservations, the
	// invariant check). The underlying cache keeps tracking the true
	// shared-memory state — drain residents still noteFreed through it —
	// and nodeRepair/drainEnd force a re-scan when the node returns.
	if ctl.nfState != nil && ctl.nfState[i] != hwmodel.NodeUp {
		return cpuset.CPUSet{}
	}
	if !ctl.nodeFreeOK[i] {
		used := ctl.cluster.System(node).Segment().EffectiveUsedMask()
		ctl.nodeFree[i] = ctl.nodeMasks[i].AndNot(used)
		ctl.nodeFreeOK[i] = true
	}
	return ctl.nodeFree[i]
}

// cachedFree returns the cached effective-free mask of node without
// triggering a re-scan; ok is false when the cache is stale.
func (ctl *Controller) cachedFree(node string) (cpuset.CPUSet, bool) {
	if i, ok := ctl.nodeIdx[node]; ok && ctl.nodeFreeOK[i] {
		return ctl.nodeFree[i], true
	}
	return cpuset.CPUSet{}, false
}

// noteUsed removes mask from node's cached effective-free set.
func (ctl *Controller) noteUsed(node string, mask cpuset.CPUSet) {
	if i, ok := ctl.nodeIdx[node]; ok && ctl.nodeFreeOK[i] {
		ctl.nodeFree[i] = ctl.nodeFree[i].AndNot(mask)
	}
}

// noteFreed returns mask to node's cached effective-free set.
func (ctl *Controller) noteFreed(node string, mask cpuset.CPUSet) {
	if i, ok := ctl.nodeIdx[node]; ok && ctl.nodeFreeOK[i] {
		ctl.nodeFree[i] = ctl.nodeFree[i].Or(mask)
	}
}

// invalidateJobsOn clears the cached allocation width of every running
// job with tasks on node.
func (ctl *Controller) invalidateJobsOn(node string) {
	for _, r := range ctl.running {
		if r.curOK && r.hasNode(node) {
			r.curOK = false
		}
	}
}

// invalidateNode drops both the node's cached effective-free mask and
// the cached widths of the jobs running there; the next consumer
// re-derives them from shared memory.
func (ctl *Controller) invalidateNode(node string) {
	if i, ok := ctl.nodeIdx[node]; ok {
		ctl.nodeFreeOK[i] = false
	}
	ctl.invalidateJobsOn(node)
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
	for _, node := range r.nodes {
		n := 0
		for _, t := range r.tasks {
			if t.node != node {
				continue
			}
			if e, code := ctl.admins[node].Inspect(t.pid); !code.IsError() {
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

// snapshotPartition refreshes the policy's view of one partition:
// free counts over the partition's nodes (indices local to the
// partition), the queued jobs targeting it and the running jobs
// inside it. The returned State and its slices are owned by the
// controller and reused across cycles and partitions: policies must
// treat it as read-only and must not retain it past the Schedule call
// (the sched.Policy contract).
func (ctl *Controller) snapshotPartition(pi int) *sched.State {
	part := ctl.cluster.Spec.Partitions[pi]
	st := &ctl.snapState
	st.Now = ctl.cluster.Engine.Now()
	st.Partition = part.Name
	st.CoresPerNode = part.Machine.CoresPerNode()
	st.Free = st.Free[:0]
	st.Queue = st.Queue[:0]
	st.Running = st.Running[:0]
	offset := ctl.cluster.Spec.NodeOffset(pi)
	for k, node := range ctl.cluster.PartitionNodes(pi) {
		if ctl.nfState != nil && ctl.nfState[offset+k] != hwmodel.NodeUp {
			// Unavailable-node sentinel: every policy placement needs at
			// least one CPU, so -1 excludes the node from starts,
			// backfill projections and malleable reclaim alike.
			st.Free = append(st.Free, -1)
			continue
		}
		st.Free = append(st.Free, ctl.effectiveFree(node).Count())
	}
	for _, q := range ctl.queue {
		if q.pidx != pi {
			continue
		}
		st.Queue = append(st.Queue, sched.Job{
			ID:             q.seq,
			Name:           q.job.Name,
			Priority:       q.job.Priority,
			Submit:         q.submit,
			Nodes:          q.job.Nodes,
			CPUsPerNode:    q.job.CPUsPerNode(),
			MinCPUsPerNode: q.job.RanksPerNode(),
			Walltime:       q.job.Walltime,
			Malleable:      q.job.Malleable,
		})
	}
	for _, r := range ctl.running {
		if r.pidx != pi {
			continue
		}
		st.Running = append(st.Running, sched.Running{
			ID:             r.seq,
			Name:           r.job.Name,
			Start:          r.start,
			Walltime:       r.job.Walltime,
			Nodes:          r.nodeIdxs, // partition-local indices
			CPUsPerNode:    ctl.runningCPUs(r),
			ReqCPUsPerNode: r.job.CPUsPerNode(),
			MinCPUsPerNode: r.job.RanksPerNode(),
			Malleable:      r.job.Malleable,
		})
	}
	return st
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
			Queue: len(ctl.queue), Running: len(ctl.running),
			Processed: ctl.cluster.Engine.Processed(),
		})
	}
	skipped := false
	if ctl.scheds == nil {
		ctl.planBuiltin()
	} else {
		skipped = ctl.planPolicies(probe)
	}
	if probe != nil {
		probe.Emit(obs.Event{
			Kind: obs.KindCycleEnd, Time: ctl.cluster.Engine.Now(),
			Queue: len(ctl.queue), Running: len(ctl.running),
			WallNanos: time.Since(cycleT0).Nanoseconds(),
		})
	}
	if skipped {
		ctl.rearmAfterSkip()
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
				started := ok && q.pidx == pi && ctl.startQueued(q, a.TargetCPUsPerNode, a.Nodes)
				if !started {
					skipped = true
				}
				if probe != nil {
					ev := obs.Event{
						Kind: obs.KindAction, Act: obs.ActStart, Reason: obs.ReasonStarted,
						Time: st.Now, Partition: st.Partition, Seq: a.ID,
						Target: a.TargetCPUsPerNode, Nodes: len(a.Nodes),
					}
					if ok {
						ev.Job = q.job.Name
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
// must match the rescan and stay within [0, CoresPerNode], and every
// cached job width must match a fresh task-mask walk.
//
//simvet:coldpath debug-only cross-check behind DebugInvariants
func (ctl *Controller) checkFreeInvariant() {
	for i, node := range ctl.cluster.Nodes {
		cores := ctl.cluster.MachineOfNode(i).CoresPerNode()
		got := ctl.effectiveFree(node)
		used := ctl.cluster.System(node).Segment().EffectiveUsedMask()
		want := ctl.nodeMasks[i].AndNot(used)
		if ctl.nfState != nil && ctl.nfState[i] != hwmodel.NodeUp {
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
	}
	for _, r := range ctl.running {
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

// startCand is a placement candidate of startQueued.
type startCand struct {
	node string
	free cpuset.CPUSet
	n    int // cached free.Count()
}

// freeCandsSorted collects the nodes of partition pi with at least
// need effectively-free CPUs into the startCands scratch and orders
// them per the NodeSelection policy (stable insertion sort by free
// count — candidate counts are node counts, and the reflect-based
// sort allocated per call; ties keep partition order). Shared by
// startQueued's unpinned path and the spillover placement so the two
// can never disagree on node selection.
func (ctl *Controller) freeCandsSorted(pi, need int) []startCand {
	cands := ctl.startCands[:0]
	for _, node := range ctl.cluster.PartitionNodes(pi) {
		f := ctl.effectiveFree(node)
		if n := f.Count(); n >= need {
			cands = append(cands, startCand{node, f, n})
		}
	}
	packed := ctl.NodeSelection == SelectPacked
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		k := i
		for k > 0 && (packed && cands[k-1].n > c.n || !packed && cands[k-1].n < c.n) {
			cands[k] = cands[k-1]
			k--
		}
		cands[k] = c
	}
	ctl.startCands = cands
	return cands
}

// startQueued places q on effectively-free CPUs of its partition —
// target per-node CPUs when the policy admits it shrunk (0 = full
// request), on the pinned partition-local node indices when the
// policy budgeted specific nodes (an EASY reservation is only
// starvation-safe on exactly those) — and launches it through the
// Figure-2 protocol. Returns false when placement fails.
//
//simvet:coldpath per start action; steady-state cycles take no actions
func (ctl *Controller) startQueued(q *queuedJob, target int, pinned []int) bool {
	j := q.job
	part := ctl.cluster.Spec.Partitions[q.pidx]
	offset := ctl.cluster.Spec.NodeOffset(q.pidx)
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
		for k, idx := range pinned {
			if idx < 0 || idx >= part.Nodes {
				ctl.startCands = cands
				return false
			}
			// A duplicated index would pass the width check below while
			// the per-node plans silently collapse onto fewer nodes:
			// reject the action instead of trusting the policy.
			for _, prev := range pinned[:k] {
				if prev == idx {
					ctl.startCands = cands
					return false
				}
			}
			node := ctl.cluster.Nodes[offset+idx]
			f := ctl.effectiveFree(node)
			if f.Count() < need {
				ctl.startCands = cands
				return false // capacity raced away; stay queued
			}
			cands = append(cands, startCand{node, f, f.Count()})
		}
		ctl.startCands = cands
		if len(cands) != j.Nodes {
			return false
		}
	} else {
		cands = ctl.freeCandsSorted(q.pidx, need)
		if len(cands) < j.Nodes {
			return false
		}
		cands = cands[:j.Nodes]
	}
	// Order the chosen nodes by name (insertion sort, unique names).
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		k := i
		for k > 0 && cands[k-1].node > c.node {
			cands[k] = cands[k-1]
			k--
		}
		cands[k] = c
	}
	if ctl.planBuf == nil {
		ctl.planBuf = make(map[string]LaunchPlan, len(ctl.cluster.Nodes))
	}
	clear(ctl.planBuf)
	nodes := make([]string, 0, j.Nodes)
	plans := ctl.planBuf
	for _, c := range cands {
		avail := c.free
		plan := LaunchPlan{}
		ctl.splitBuf = splitEvenInto(ctl.splitBuf, need, j.RanksPerNode())
		for _, want := range ctl.splitBuf {
			mask := machine.SocketAwarePick(avail, want)
			if mask.IsEmpty() {
				return false
			}
			plan.NewTaskMasks = append(plan.NewTaskMasks, mask)
			avail = avail.AndNot(mask)
		}
		nodes = append(nodes, c.node)
		plans[c.node] = plan
	}
	ctl.dequeue(q)
	ctl.launch(q, nodes, plans)
	return true
}

// shrinkRunning stages r down to target CPUs per node through
// DROM_SetProcessMask; each task keeps a socket-compact subset of its
// own mask and applies it at its next poll.
//
//simvet:coldpath per shrink action; steady-state cycles take no actions
func (ctl *Controller) shrinkRunning(r *runningJob, target int) {
	for _, node := range r.nodes {
		refs := r.onNodeInto(ctl.refsBuf, node)
		ctl.refsBuf = refs
		if len(refs) == 0 {
			continue
		}
		t := target
		if t < len(refs) {
			t = len(refs) // never below one CPU per task
		}
		machine := ctl.machineOf(node)
		cur := ctl.effectiveMasks(node, refs)
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
			if code := ctl.admins[node].SetProcessMask(ref.pid, keep, core.FlagNone); code.IsError() {
				if !ctl.shmemFault(node, code) {
					ctl.fail(fmt.Errorf("slurm: sched shrink pid %d to %s on %s: %w", ref.pid, keep, node, code))
				}
				continue
			}
			// The dropped CPUs join the node's effective-free set the
			// moment the shrink is staged (a dirty future is binding).
			ctl.noteFreed(node, cur[i].AndNot(keep))
			ctl.logf(node, "sched_shrink", "DROM_SetProcessMask(pid=%d, mask=%s) [%s]",
				ref.pid, keep, r.job.Name)
		}
	}
	r.curOK = false // recompute the cached width on the next snapshot
}

// expandRunning grows r toward target CPUs per node from the node's
// effectively-free CPUs.
//
//simvet:coldpath per expand action; steady-state cycles take no actions
func (ctl *Controller) expandRunning(r *runningJob, target int) {
	for _, node := range r.nodes {
		refs := r.onNodeInto(ctl.refsBuf, node)
		ctl.refsBuf = refs
		if len(refs) == 0 {
			continue
		}
		machine := ctl.machineOf(node)
		free := ctl.effectiveFree(node)
		cur := ctl.effectiveMasks(node, refs)
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
			if code := ctl.admins[node].SetProcessMask(ref.pid, mask, core.FlagNone); code.IsError() {
				if !ctl.shmemFault(node, code) {
					ctl.fail(fmt.Errorf("slurm: sched expand pid %d to %s on %s: %w", ref.pid, mask, node, code))
				}
				continue
			}
			ctl.noteUsed(node, extra)
			ctl.logf(node, "sched_expand", "DROM_SetProcessMask(pid=%d, mask=%s) [%s]",
				ref.pid, mask, r.job.Name)
		}
	}
	r.curOK = false // recompute the cached width on the next snapshot
}

// effectiveMasks returns the binding mask of each task: the staged
// future when dirty, the current mask otherwise. The returned slice
// is controller-owned scratch, valid until the next call.
func (ctl *Controller) effectiveMasks(node string, refs []taskRef) []cpuset.CPUSet {
	if cap(ctl.maskBuf) < len(refs) {
		ctl.maskBuf = make([]cpuset.CPUSet, len(refs))
	}
	out := ctl.maskBuf[:len(refs)]
	for i := range out {
		out[i] = cpuset.CPUSet{}
	}
	for i, ref := range refs {
		if e, code := ctl.admins[node].Inspect(ref.pid); !code.IsError() {
			out[i] = e.EffectiveMask()
		}
	}
	return out
}

// ---------------------------------------------------------------------
// EASY head-reservation guard of the spillover pass
// ---------------------------------------------------------------------

// headReservation is the blocked head's claim on the cluster: the
// shadow time when its nodes are projected free (per the running
// jobs' walltime estimates) and which nodes those are. Instances are
// controller-owned scratch (one per partition, reused cycle to
// cycle); a reservation is valid only until the next reservationFor
// call for the same partition.
type headReservation struct {
	shadow float64
	nodes  []string
}

// resvNode pairs one node with its projected free time for the
// reservation sort.
type resvNode struct {
	node string
	at   float64
}

// resvNodeSorter orders by (free time, name) without the allocation
// of a reflect-based sort. Names are unique, so the order is total
// and matches the stable (freeAt, name) sort the map-based
// implementation used.
type resvNodeSorter struct{ r []resvNode }

func (s *resvNodeSorter) Len() int      { return len(s.r) }
func (s *resvNodeSorter) Swap(i, j int) { s.r[i], s.r[j] = s.r[j], s.r[i] }
func (s *resvNodeSorter) Less(i, j int) bool {
	if s.r[i].at != s.r[j].at {
		return s.r[i].at < s.r[j].at
	}
	return s.r[i].node < s.r[j].node
}

// reservationFor projects, per node of j's partition, when all
// current occupants have ended, and reserves the j.Nodes earliest-
// free nodes for j. Every buffer it touches is controller-owned
// scratch: the spillover pass calls it inside the scheduling cycle.
func (ctl *Controller) reservationFor(j *Job, pidx int) *headReservation {
	now := ctl.cluster.Engine.Now()
	partNodes := ctl.cluster.PartitionNodes(pidx)
	offset := ctl.cluster.Spec.NodeOffset(pidx)
	if cap(ctl.resvFreeAt) < len(partNodes) {
		ctl.resvFreeAt = make([]float64, len(partNodes))
	}
	freeAt := ctl.resvFreeAt[:len(partNodes)]
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
	for _, r := range ctl.running {
		if r.pidx != pidx {
			continue
		}
		end := r.start + sched.EffectiveWalltime(r.job.Walltime)
		if end < now {
			end = now // overdue estimate: "ends any moment"
		}
		for _, node := range r.nodes {
			if i := ctl.nodeIdx[node] - offset; end > freeAt[i] {
				freeAt[i] = end
			}
		}
	}
	order := ctl.resvOrder[:0]
	for i, node := range partNodes {
		order = append(order, resvNode{node: node, at: freeAt[i]})
	}
	ctl.resvOrder = order
	ctl.resvSorter.r = order
	sort.Sort(&ctl.resvSorter)
	n := j.Nodes
	if n > len(order) {
		n = len(order)
	}
	if ctl.resvBuf == nil {
		ctl.resvBuf = make(map[int]*headReservation, len(ctl.cluster.Spec.Partitions))
	}
	rv := ctl.resvBuf[pidx]
	if rv == nil {
		rv = &headReservation{}
		ctl.resvBuf[pidx] = rv
	}
	rv.shadow = 0
	rv.nodes = rv.nodes[:0]
	for _, c := range order[:n] {
		rv.nodes = append(rv.nodes, c.node)
		if c.at > rv.shadow {
			rv.shadow = c.at
		}
	}
	return rv
}

// allows reports whether launching j on nodes now can delay the
// reserved head: a candidate is admitted when it is projected to end
// by the shadow time, or when it touches none of the reserved nodes.
func (rv *headReservation) allows(now float64, j *Job, nodes []string) bool {
	if now+sched.EffectiveWalltime(j.Walltime) <= rv.shadow {
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
