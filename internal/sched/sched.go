// Package sched provides pluggable queue-ordering and admission
// policies for the slurmctld simulation. The paper deliberately keeps
// slurmctld FCFS and names scheduler-driven malleability as future
// work ("the scheduler could shrink running jobs to start queued
// ones"); this package is that scheduler.
//
// A Policy sees a read-only capacity snapshot of the cluster (free
// CPUs per node, the priority-ordered queue, the running set with
// walltime estimates) and answers with an ordered list of Actions:
// start a queued job (possibly below its request), shrink a running
// malleable job, or expand one. The controller executes the actions
// through the real DROM code path — shrinks and expands are
// DROM_SetProcessMask calls staged in shared memory and applied at the
// applications' next DLB_PollDROM, launches reserve CPUs via
// DROM_PreInit exactly as the Figure-2 protocol prescribes.
//
// Four policies ship:
//
//	fcfs              head-of-line blocking, strict priority+FIFO
//	easy              EASY backfilling: the head job gets a walltime-
//	                  based reservation, later jobs may jump ahead only
//	                  if they cannot delay it
//	malleable-shrink  easy + shrink running malleable jobs (equi-
//	                  partition, never below one CPU per task) to admit
//	                  the queue head early
//	malleable-expand  malleable-shrink + re-expand running jobs into
//	                  free CPUs once the queue is served
package sched

import (
	"fmt"
	"math"
	"sort"
)

// DefaultWalltime is the estimate used for jobs that declare none
// (seconds). EASY-style reservations need an end estimate for every
// job; one hour is the classic site default.
const DefaultWalltime = 3600.0

// Job is the scheduler's view of one queued submission.
type Job struct {
	// ID is the controller's stable handle for the job (submission
	// sequence number).
	ID int
	// Name is the job name (diagnostics only).
	Name string
	// Priority orders the queue (higher first).
	Priority int
	// Submit is the submission time (virtual seconds).
	Submit float64
	// Nodes is the number of distinct nodes required.
	Nodes int
	// CPUsPerNode is the requested CPUs on each node.
	CPUsPerNode int
	// MinCPUsPerNode is the malleability floor (one CPU per task).
	MinCPUsPerNode int
	// Walltime is the user's runtime estimate in seconds (<= 0 means
	// unknown; DefaultWalltime applies).
	Walltime float64
}

// Running is the scheduler's view of one running job.
type Running struct {
	ID int
	// Start is when the job started.
	Start float64
	// Walltime is the runtime estimate (<= 0 unknown).
	Walltime float64
	// Nodes are the node indices the job occupies.
	Nodes []int
	// CPUsPerNode is the job's current per-node allocation.
	CPUsPerNode int
	// ReqCPUsPerNode is what the job originally asked for.
	ReqCPUsPerNode int
	// MinCPUsPerNode is the shrink floor (one CPU per task).
	MinCPUsPerNode int
	// Malleable marks the job as shrinkable/expandable through DROM.
	Malleable bool
}

// EndEstimate returns the projected completion time.
func (r *Running) EndEstimate() float64 {
	return r.Start + EffectiveWalltime(r.Walltime)
}

// State is the read-only snapshot a policy schedules against. The
// executor owns the State and its slices and keeps them alive across
// cycles — the controller edits Queue and Running in place as jobs
// come and go instead of rebuilding them for every pass — so a policy
// must not mutate them nor retain references past the Schedule call
// (copy what it wants to keep). What a policy may rely on, whichever
// way the executor maintains the State: Queue is in strict priority
// order with unique IDs, Running is in launch order with unique IDs
// and ascending, duplicate-free Nodes, and positions in either slice
// are stable for the duration of one Schedule call (the policies index
// their per-job working state by position in Running).
type State struct {
	// Now is the current virtual time.
	Now float64
	// Partition names the partition this snapshot covers. Partitions
	// are independent homogeneous capacity domains: the executor
	// invokes the policy once per partition per cycle, and all node
	// indices in Free, Running.Nodes and the returned Action.Nodes are
	// local to the named partition — a policy never sees two node
	// shapes in one State and never places a job across partitions.
	Partition string
	// CoresPerNode is the node capacity (of this partition's machine).
	CoresPerNode int
	// Free holds the currently free CPUs per node (effective masks: a
	// staged-but-unapplied shrink already counts as freed, a staged
	// grow as taken). A -1 entry marks an unavailable node (down or
	// draining under the failure-domain model): it can host nothing,
	// reclaims nothing, and its projected releases never materialize —
	// every placement needs at least one CPU, so the sentinel falls out
	// of range checks naturally.
	Free []int
	// Queue is the waiting jobs in strict priority order: priority
	// descending, then submission sequence ascending. Policies must
	// respect this order for tie-breaking to stay deterministic.
	Queue []Job
	// Running is the running set, in launch order.
	Running []Running
}

// ActionKind discriminates scheduler directives.
type ActionKind int

const (
	// ActStart launches a queued job.
	ActStart ActionKind = iota
	// ActShrink reduces a running job's per-node allocation.
	ActShrink
	// ActExpand grows a running job's per-node allocation.
	ActExpand
)

func (k ActionKind) String() string {
	switch k {
	case ActStart:
		return "start"
	case ActShrink:
		return "shrink"
	case ActExpand:
		return "expand"
	}
	return "?"
}

// Action is one scheduling directive. The controller executes actions
// in order; an action that no longer applies (capacity raced away) is
// skipped, and the job simply stays queued for the next cycle.
type Action struct {
	Kind ActionKind
	// ID names the queued job (ActStart) or running job (others).
	ID int
	// TargetCPUsPerNode is the per-node allocation to start at
	// (ActStart, 0 = full request) or to shrink/expand to.
	TargetCPUsPerNode int
	// Nodes pins an ActStart to specific node indices. The executor
	// must honor them (or skip the action): EASY's past-shadow
	// backfills and the malleable admissions are only starvation-safe
	// on the exact nodes the policy budgeted. Indices must be unique —
	// the executor rejects an action that names a node twice.
	Nodes []int
}

func (a Action) String() string {
	if a.TargetCPUsPerNode > 0 {
		return fmt.Sprintf("%s(#%d→%d cpus/node)", a.Kind, a.ID, a.TargetCPUsPerNode)
	}
	return fmt.Sprintf("%s(#%d)", a.Kind, a.ID)
}

// Policy decides, each scheduling cycle, which queued jobs to admit
// and how to reshape the running set. Implementations must be
// deterministic: the same State always yields the same actions. An
// action the executor cannot apply (capacity raced away, invalid or
// duplicated pinned nodes) is skipped and re-planned on the follow-up
// cycle the executor re-arms at the same timestamp.
//
// Policies carry reusable scratch buffers: the returned actions (and
// their Nodes slices) are valid only until the next Schedule call on
// the same instance, and a policy instance must not be shared between
// concurrently running experiments — the sweep engine creates one per
// experiment.
type Policy interface {
	Name() string
	Schedule(s *State) []Action
	// ClonePolicy returns a fresh instance of the same policy with the
	// same configuration and cold, instance-private scratch buffers —
	// nothing the clone's Schedule touches may alias the original's
	// state. Forked simulation lineages clone every partition's policy
	// so both lineages plan independently yet identically: all decision
	// inputs must live in State or in cloned configuration, never in
	// scratch carried across cycles.
	ClonePolicy() Policy
}

// New returns a policy by name. Accepted names: "fcfs", "easy",
// "malleable-shrink" (alias "shrink"), "malleable-expand" (aliases
// "malleable", "expand").
func New(name string) (Policy, error) {
	switch name {
	case "fcfs":
		return &FCFS{}, nil
	case "easy":
		return &EASY{}, nil
	case "malleable-shrink", "shrink":
		return &Malleable{}, nil
	case "malleable-expand", "malleable", "expand":
		return &Malleable{Expand: true}, nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (have %v)", name, Names())
}

// Names lists the canonical policy names.
func Names() []string {
	return []string{"fcfs", "easy", "malleable-shrink", "malleable-expand"}
}

// ---------------------------------------------------------------------
// Capacity helpers shared by the policies
// ---------------------------------------------------------------------

// EffectiveWalltime returns the runtime estimate to plan with: w
// itself when positive, DefaultWalltime otherwise. Every consumer of
// walltime estimates — the policies' reservations here and the
// controller's backfill guard in internal/slurm — must use this one
// helper, so the unknown-walltime fallback can never drift between
// the planner and the executor.
func EffectiveWalltime(w float64) float64 {
	if w > 0 {
		return w
	}
	return DefaultWalltime
}

// wallOf returns the effective walltime estimate of a queued job.
func wallOf(j *Job) float64 { return EffectiveWalltime(j.Walltime) }

// scratch holds the reusable buffers of one policy instance. A cycle
// runs tens of placements and a reservation projection; allocating
// those per call dominated the policies' allocation profile at
// 100k-job replay scale, so every buffer lives here and is reset at
// the top of Schedule. Consequence: returned actions are valid only
// until the next Schedule call, and instances are single-goroutine.
type scratch struct {
	free    []int
	acts    []Action
	started []relJob
	// arena backs the node-index slices handed out through Actions
	// this cycle; growing it re-allocates the backing array, which is
	// safe because already-returned slices keep the old one alive.
	arena []int
	cands []placeCand
	// reservation projection buffers.
	rels  []relKey
	proj  []int
	spare []int
	comb  []int
}

// reset prepares the buffers for a new cycle against state s.
func (sc *scratch) reset(s *State) {
	sc.free = append(sc.free[:0], s.Free...)
	sc.acts = sc.acts[:0]
	sc.started = sc.started[:0]
	sc.arena = sc.arena[:0]
}

// intSlice hands out an n-slot zeroed slice from the cycle arena.
func (sc *scratch) intSlice(n int) []int {
	start := len(sc.arena)
	for i := 0; i < n; i++ {
		sc.arena = append(sc.arena, 0)
	}
	return sc.arena[start : start+n : start+n]
}

type placeCand struct{ idx, free int }

// place picks nodes nodes with at least need free CPUs each,
// preferring the freest (ties: lower index), subtracts the usage from
// free in place, and returns the chosen indices sorted ascending
// (arena-backed). It returns nil (and leaves free untouched) when the
// job does not fit.
func (sc *scratch) place(free []int, nodes, need int) []int {
	cands := sc.cands[:0]
	for i, f := range free {
		if f >= need {
			cands = append(cands, placeCand{i, f})
		}
	}
	sc.cands = cands
	if nodes <= 0 || len(cands) < nodes {
		return nil
	}
	// Stable insertion sort by free descending (ties keep index
	// order): candidate counts are node counts, and the reflect-based
	// stable sort allocated on every call.
	for i := 1; i < len(cands); i++ {
		c := cands[i]
		j := i
		for j > 0 && cands[j-1].free < c.free {
			cands[j] = cands[j-1]
			j--
		}
		cands[j] = c
	}
	out := sc.intSlice(nodes)
	for k, c := range cands[:nodes] {
		free[c.idx] -= need
		out[k] = c.idx
	}
	sort.Ints(out)
	return out
}

// fits reports whether the job would fit without consuming capacity.
func fits(free []int, nodes, need int) bool {
	n := 0
	for _, f := range free {
		if f >= need {
			n++
		}
	}
	return n >= nodes
}

// relJob is the future capacity return of a job started this cycle: at
// time at, every node of nodes gets cpus back.
type relJob struct {
	at    float64
	nodes []int
	cpus  int
}

// appendStarted records the future capacity return of a job started
// this cycle on the given nodes (arena-backed, valid for the cycle).
func (sc *scratch) appendStarted(nodes []int, cpus int, at float64) {
	sc.started = append(sc.started, relJob{at: at, nodes: nodes, cpus: cpus})
}

// relKey orders one job's capacity return in the reservation
// projection: at is its end estimate, k its position in State.Running
// or, past that, among the jobs started this cycle. Pointer-free, so
// building and ordering the keys costs no write barriers.
type relKey struct {
	at float64
	k  int
}

// siftDown restores the min-heap order (by at) of h below position i.
func siftDown(h []relKey, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// reservation computes the EASY reservation for a blocked head job:
// the shadow time (earliest projected start, +Inf when even a fully
// drained cluster cannot host it) and the spare capacity per node at
// that time after the head's placement is carved out (scratch-backed,
// mutable by the caller until the next cycle). Backfilled jobs that
// cannot prove they end before the shadow must fit inside the spare
// capacity, so they can never delay the head. The started releases of
// this cycle are included in the projection.
//
// Overdue end estimates are clamped to now (the job "should end any
// moment"). allocs, when non-nil, overrides the running jobs'
// allocations by position in s.Running — a shrink decided earlier in
// the same cycle already moved the difference into the free pool, so
// only the remainder comes back at job end.
//
// Releases are ordered per job, not per node: the projection consumes
// every release up to the shadow as one batch, and within a batch the
// capped sums of non-negative CPU counts come out the same in any
// order, so only the order of the distinct end estimates matters. And
// they are ordered lazily, through a min-heap: the head usually fits
// after the first few batches, long before the running set is drained.
func (sc *scratch) reservation(s *State, free []int, head *Job, allocs []int) (float64, []int) {
	rels := sc.rels[:0]
	for k := range s.Running {
		at := s.Running[k].EndEstimate()
		if at < s.Now {
			at = s.Now
		}
		rels = append(rels, relKey{at: at, k: k})
	}
	for k := range sc.started {
		rels = append(rels, relKey{at: sc.started[k].at, k: len(s.Running) + k})
	}
	sc.rels = rels
	for i := len(rels)/2 - 1; i >= 0; i-- {
		siftDown(rels, i)
	}
	proj := append(sc.proj[:0], free...)
	sc.proj = proj
	shadow := s.Now
	for {
		if fits(proj, head.Nodes, head.CPUsPerNode) {
			spare := append(sc.spare[:0], proj...)
			sc.spare = spare
			if sc.place(spare, head.Nodes, head.CPUsPerNode) != nil {
				return shadow, spare
			}
		}
		if len(rels) == 0 {
			return math.Inf(1), proj
		}
		shadow = rels[0].at
		for len(rels) > 0 && rels[0].at <= shadow {
			k := rels[0].k
			rels[0] = rels[len(rels)-1]
			rels = rels[:len(rels)-1]
			siftDown(rels, 0)
			var nodes []int
			var cpus int
			switch {
			case k >= len(s.Running):
				nodes, cpus = sc.started[k-len(s.Running)].nodes, sc.started[k-len(s.Running)].cpus
			case allocs != nil:
				nodes, cpus = s.Running[k].Nodes, allocs[k]
			default:
				nodes, cpus = s.Running[k].Nodes, s.Running[k].CPUsPerNode
			}
			for _, n := range nodes {
				// An unavailable node (-1) stays out of the projection: a
				// draining node's residents do release CPUs, but nothing may
				// start there, so the reservation must not count them.
				if proj[n] >= 0 {
					proj[n] = min(proj[n]+cpus, s.CoresPerNode)
				}
			}
		}
	}
}

// WaterfillBounded distributes cores among participants with per-entry
// minimum and maximum allocations: the equipartition rule of §5 ("for
// fairness, computational resources are equally partitioned among
// running jobs"), except that no participant receives more than it
// asked for (max) and none is starved below its floor (min — one CPU
// per task for a running job). It is the one fairness rule of both
// planners — the slurmd task/affinity plugin (slurm's planner, at
// launch and at release) and the malleable policies — writing into dst
// (grown as needed). Returns nil when a minimum exceeds its maximum or
// the minimums alone exceed the capacity.
func WaterfillBounded(dst []int, cores int, mins, maxs []int) []int {
	alloc := dst[:0]
	remaining := cores
	for i := range mins {
		if mins[i] > maxs[i] {
			return nil
		}
		alloc = append(alloc, mins[i])
		remaining -= mins[i]
	}
	if remaining < 0 {
		return nil
	}
	// Hand out the rest one CPU at a time to the smallest allocation
	// still below its request: converges to the equipartition.
	for remaining > 0 {
		best := -1
		for i := range alloc {
			if alloc[i] >= maxs[i] {
				continue
			}
			if best < 0 || alloc[i] < alloc[best] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		alloc[best]++
		remaining--
	}
	return alloc
}
