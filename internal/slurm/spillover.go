package slurm

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Cross-partition spillover. Partitions are independent capacity
// domains: a job targets exactly one, and PR 4's per-partition policy
// passes never move work between them — a job submitted to a congested
// partition waits forever even when another partition could host its
// shape right now. The opt-in spillover pass (Controller.Spillover)
// closes that gap: after every partition's policy pass, queued jobs
// that their home partition cannot place are re-routed to another
// partition that (a) fits the job's shape, (b) has the free CPUs to
// start it immediately, and (c) would not see its own EASY head
// reservation delayed by the newcomer. A spilled job starts at its
// full request and is recorded with its origin partition
// (metrics.JobRecord.Origin), so per-partition metrics stay honest.

// spillPart is the spillover pass's scratch for one partition; it
// lives for one pass.
type spillPart struct {
	// freeAsc holds the partition's effective free counts in ascending
	// order (spillRoom reads it). Only a spill committing into the
	// partition changes its free counts mid-pass, and re-sorts it.
	freeAsc []int
	// resv is the EASY reservation of the partition's blocked head
	// (blocked false: nothing waits there), valid while resvOK. The
	// projection it derives from — the partition's running set and
	// queue head — changes only when a spill commits into or out of
	// the partition, so recomputing per candidate, on backlogs of
	// hundreds of jobs, would repeat identical projections.
	resv    headReservation
	blocked bool
	resvOK  bool
}

// spillPass runs once per scheduling cycle, after the per-partition
// policy passes. It walks the remaining queue in priority order — a
// merge over the partitions' views, which are its subsequences; for
// each eligible job (its home partition has no free capacity for it,
// it has waited at least SpillAfter seconds, and its home backlog is
// at least SpillDepth deep) it tries the other partitions in index
// order and commits the first placement the host's head reservation
// allows. Re-routes happen through the normal launch path, so the
// host partition's next policy pass simply sees the job running.
func (ctl *Controller) spillPass() {
	parts := ctl.cluster.Spec.Partitions
	if len(parts) < 2 || ctl.QueueLen() == 0 {
		return
	}
	now := ctl.cluster.Engine.Now()
	if len(ctl.spill) < len(parts) {
		ctl.spill = make([]spillPart, len(parts))
		ctl.spillCur = make([]int, len(parts))
	}
	cur := ctl.spillCur
	for pi := range ctl.spill {
		ctl.spillSortFree(pi)
		ctl.spill[pi].resvOK = false
		cur[pi] = 0
	}
	minDepth := max(ctl.SpillDepth, 1)
	for {
		home := ctl.nextQueued(cur)
		if home < 0 {
			return
		}
		hv := &ctl.views[home]
		k := cur[home]
		cur[home]++
		j := &hv.st.Queue[k]
		if len(hv.st.Queue) < minDepth || now-j.Submit < ctl.SpillAfter {
			continue
		}
		if spillRoom(ctl.spill[home].freeAsc, j) {
			// The home partition could place the job right now; it waits
			// by policy order, not for capacity. Spilling would just
			// shuffle load.
			continue
		}
		for host := range parts {
			sp := &ctl.spill[host]
			if host == home || !spillRoom(sp.freeAsc, j) {
				continue
			}
			q := hv.qjobs[k]
			if q.resume != nil {
				// A checkpointed job resumes in its own partition: its image
				// and iteration state are partition-local.
				break
			}
			nodes := ctl.spillPlacement(j, host)
			if !sp.resvOK {
				// The host's blocked head (if any) holds an EASY-style
				// reservation.
				if sp.blocked = len(ctl.views[host].st.Queue) > 0; sp.blocked {
					ctl.reserveHead(host, &sp.resv)
				}
				sp.resvOK = true
			}
			// Admit the spill only when it cannot delay the reserved
			// head (the EASY shadow-time check).
			if sp.blocked && !sp.resv.allows(now, j.Walltime, nodes) {
				if ctl.Probe != nil {
					ctl.Probe.Emit(obs.Event{
						Kind: obs.KindAction, Act: obs.ActSpill,
						Reason: obs.ReasonBlockedByReservation,
						Time:   now, Job: j.Name, Seq: j.ID,
						Partition: parts[host].Name, Origin: parts[home].Name,
						Shadow: sp.resv.shadow,
					})
				}
				continue
			}
			name, seq, width := j.Name, j.ID, j.Nodes // the commit drops j and recycles q
			if !ctl.startQueued(q, host, 0, nodes) {
				continue // placement raced away; stay home
			}
			// The commit took entry k out of the home view: j is gone and
			// the next home job slid into its slot.
			cur[home]--
			// The host's free counts and running set changed, and the
			// home partition lost a queued job — possibly its head.
			ctl.spillSortFree(host)
			sp.resvOK = false
			ctl.spill[home].resvOK = false
			if ctl.Probe != nil {
				ctl.Probe.Emit(obs.Event{
					Kind: obs.KindAction, Act: obs.ActSpill, Reason: obs.ReasonSpilled,
					Time: now, Job: name, Seq: seq,
					Partition: parts[host].Name, Origin: parts[home].Name,
					Nodes: width,
				})
			}
			break
		}
	}
}

// spillSortFree (re)builds partition pi's ascending free-count vector.
func (ctl *Controller) spillSortFree(pi int) {
	sp := &ctl.spill[pi]
	v := sp.freeAsc[:0]
	lo := ctl.cluster.Spec.NodeOffset(pi)
	for ni := lo; ni < lo+ctl.cluster.Spec.Partitions[pi].Nodes; ni++ {
		v = append(v, ctl.freeCount(ni))
	}
	sort.Ints(v)
	sp.freeAsc = v
}

// spillRoom reports whether a partition whose ascending free counts
// are freeAsc has j.Nodes nodes with j.CPUsPerNode effectively-free
// CPUs each right now: the j.Nodes-th freest node decides. A shape
// the partition can never run — more nodes than it has, or more CPUs
// per node than its machine, which no free count reaches — has no
// room either.
func spillRoom(freeAsc []int, j *sched.Job) bool {
	return j.Nodes <= len(freeAsc) && freeAsc[len(freeAsc)-j.Nodes] >= j.CPUsPerNode
}

// spillPlacement picks the nodes of host partition pi for a spill it
// has room for, through the same freeCandsSorted selection
// startQueued's unpinned path uses, so spill placements can never
// diverge from policy placements. It returns partition-local indices
// (controller scratch), handed to startQueued as a pinned placement so
// the reservation check and the launch agree on the exact nodes.
func (ctl *Controller) spillPlacement(j *sched.Job, pi int) []int {
	cands := ctl.freeCandsSorted(pi, j.CPUsPerNode)
	offset := ctl.cluster.Spec.NodeOffset(pi)
	out := ctl.spillNodes[:0]
	for _, c := range cands[:j.Nodes] {
		out = append(out, c.ni-offset)
	}
	ctl.spillNodes = out
	return out
}
