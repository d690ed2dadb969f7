package slurm

import "repro/internal/obs"

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

// spillPass runs once per scheduling cycle, after the per-partition
// policy passes. It walks the remaining queue in priority order; for
// each eligible job (its home partition has no free capacity for it,
// it has waited at least SpillAfter seconds, and its home backlog is
// at least SpillDepth deep) it tries the other partitions in index
// order and commits the first placement the host's head reservation
// allows. Re-routes happen through the normal launch path, so the
// host partition's next policy pass simply sees the job running.
func (ctl *Controller) spillPass() {
	parts := ctl.cluster.Spec.Partitions
	if len(parts) < 2 {
		return
	}
	now := ctl.cluster.Engine.Now()
	// Snapshot the queue and the per-partition backlog first: a
	// committed spill dequeues the job mid-walk.
	queue := append(ctl.spillQueue[:0], ctl.queue...)
	ctl.spillQueue = queue
	if cap(ctl.spillDepth) < len(parts) {
		ctl.spillDepth = make([]int, len(parts))
	}
	depth := ctl.spillDepth[:len(parts)]
	for i := range depth {
		depth[i] = 0
	}
	for _, q := range queue {
		depth[q.pidx]++
	}
	minDepth := ctl.SpillDepth
	if minDepth < 1 {
		minDepth = 1
	}
	// Host head reservations are cached for the duration of the pass:
	// the projection they derive from (the host's running set and
	// queue head) only changes when a spill commits into that host, so
	// recomputing per candidate — on backlogs of hundreds of jobs —
	// would repeat identical O(nodes log nodes) projections.
	if cap(ctl.spillResv) < len(parts) {
		ctl.spillResv = make([]*headReservation, len(parts))
		ctl.spillResvOK = make([]bool, len(parts))
	}
	resv := ctl.spillResv[:len(parts)]
	resvOK := ctl.spillResvOK[:len(parts)]
	for i := range resvOK {
		resvOK[i] = false
	}
	for _, q := range queue {
		if _, waiting := ctl.qBySeq[q.seq]; !waiting {
			continue // started or cancelled earlier in this pass
		}
		if q.resume != nil {
			// A checkpointed job resumes in its own partition: its image
			// and iteration state are partition-local.
			continue
		}
		home := q.pidx
		if depth[home] < minDepth || now-q.submit < ctl.SpillAfter {
			continue
		}
		if ctl.partitionHasRoom(q.job, home) {
			// The home partition could place the job right now; it waits
			// by policy order, not for capacity. Spilling would just
			// shuffle load.
			continue
		}
		for host := range parts {
			if host == home || !ctl.fitsPartition(q.job, host) {
				continue
			}
			nodes := ctl.spillPlacement(q.job, host)
			if nodes == nil {
				continue
			}
			if !resvOK[host] {
				// The host's blocked head (if any) holds an EASY-style
				// reservation; reservationFor's per-partition scratch
				// keeps each cached pointer valid across hosts.
				resv[host] = nil
				if head := ctl.queueHeadOf(host); head != nil {
					resv[host] = ctl.reservationFor(head.job, host)
				}
				resvOK[host] = true
			}
			// Admit the spill only when it cannot delay the reserved
			// head (the EASY shadow-time check).
			if rv := resv[host]; rv != nil && !ctl.spillAllowed(rv, q.job, host, nodes) {
				if ctl.Probe != nil {
					ctl.Probe.Emit(obs.Event{
						Kind: obs.KindAction, Act: obs.ActSpill,
						Reason: obs.ReasonBlockedByReservation,
						Time:   now, Job: q.job.Name, Seq: q.seq,
						Partition: parts[host].Name, Origin: parts[home].Name,
						Shadow: rv.shadow,
					})
				}
				continue
			}
			q.pidx = host
			if ctl.startQueued(q, 0, nodes) {
				depth[home]--
				// The host's running set changed, and the home partition
				// lost a queued job — possibly its head — so both cached
				// reservations are stale.
				resvOK[host] = false
				resvOK[home] = false
				// logf's variadic args box at the call site even when
				// logging is off; the guard keeps spill cycles clean.
				if ctl.LogProtocol { //simvet:alloc protocol logging enabled only
					ctl.logf(ctl.cluster.Nodes[ctl.cluster.Spec.NodeOffset(host)+nodes[0]],
						"spillover", "job %s re-routed %s -> %s",
						q.job.Name, parts[home].Name, parts[host].Name)
				}
				if ctl.Probe != nil {
					ctl.Probe.Emit(obs.Event{
						Kind: obs.KindAction, Act: obs.ActSpill, Reason: obs.ReasonSpilled,
						Time: now, Job: q.job.Name, Seq: q.seq,
						Partition: parts[host].Name, Origin: parts[home].Name,
						Nodes: q.job.Nodes,
					})
				}
				break
			}
			q.pidx = home // placement raced away; stay home
		}
	}
}

// fitsPartition reports whether the job's shape can ever run on
// partition pi: enough nodes, and the per-node request within the
// partition's machine size.
func (ctl *Controller) fitsPartition(j *Job, pi int) bool {
	part := ctl.cluster.Spec.Partitions[pi]
	return j.Nodes <= part.Nodes && j.CPUsPerNode() <= part.Machine.CoresPerNode()
}

// partitionHasRoom reports whether partition pi currently has j.Nodes
// nodes with j.CPUsPerNode() effectively-free CPUs each.
func (ctl *Controller) partitionHasRoom(j *Job, pi int) bool {
	if !ctl.fitsPartition(j, pi) {
		return false
	}
	need := j.CPUsPerNode()
	n := 0
	for _, node := range ctl.cluster.PartitionNodes(pi) {
		if ctl.effectiveFree(node).Count() >= need {
			n++
			if n >= j.Nodes {
				return true
			}
		}
	}
	return false
}

// spillPlacement picks the host-partition nodes for a spill through
// the same freeCandsSorted selection startQueued's unpinned path
// uses, so spill placements can never diverge from policy
// placements. It returns partition-local indices (controller
// scratch) or nil when the job does not fit right now; the indices
// are handed to startQueued as a pinned placement, so the
// reservation check and the launch agree on the exact nodes.
func (ctl *Controller) spillPlacement(j *Job, pi int) []int {
	cands := ctl.freeCandsSorted(pi, j.CPUsPerNode())
	if len(cands) < j.Nodes {
		return nil
	}
	offset := ctl.cluster.Spec.NodeOffset(pi)
	out := ctl.spillNodes[:0]
	for _, c := range cands[:j.Nodes] {
		out = append(out, ctl.nodeIdx[c.node]-offset)
	}
	ctl.spillNodes = out
	return out
}

// spillAllowed applies the head-reservation guard to a planned spill
// by translating the partition-local indices to node names (scratch)
// and asking headReservation.allows.
func (ctl *Controller) spillAllowed(rv *headReservation, j *Job, pi int, nodes []int) bool {
	offset := ctl.cluster.Spec.NodeOffset(pi)
	names := ctl.spillNames[:0]
	for _, idx := range nodes {
		names = append(names, ctl.cluster.Nodes[offset+idx])
	}
	ctl.spillNames = names
	return rv.allows(ctl.cluster.Engine.Now(), j, names)
}

// queueHeadOf returns the first waiting job of partition pi (the
// queue is priority-ordered globally, so the first match is the
// partition's head), or nil when its queue is empty.
func (ctl *Controller) queueHeadOf(pi int) *queuedJob {
	for _, q := range ctl.queue {
		if q.pidx == pi {
			return q
		}
	}
	return nil
}
