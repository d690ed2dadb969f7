package slurm

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/sched"
)

// The controller's store of live jobs: one partView per partition.
// A queued job is an entry of its target partition's view, a running
// job one of the partition it runs in; no other list of live jobs
// exists. The view holds each job twice over — the record (qjobs,
// rjobs) and the policy's entry for it in a sched.State kept alive
// across cycles (st.Queue, st.Running) — and every edit changes both:
//
//	enqueue / dequeue            insert / remove the entry, in order
//	addRunning / removeRunning   append / remove the entry
//	invalidateWidth              mark the partition's widths dirty
//
// Queue order is priority descending, then seq ascending; the global
// queue order both planners follow is the merge of the views' queues
// (nextQueued). Running order is launch order, which is what jobsOn,
// tryPreempt and killResidents walk: all of a running job's nodes lie
// in its partition. Free is not edited in place: the per-node popcount
// cache beside nodeFree makes re-reading it a load per node.
//
// qBySeq and rBySeq index the same records by seq, because pending-
// event descriptors and policy actions name jobs by seq alone (a scan
// would make each launch's evStart dispatch O(running)). Under
// DebugInvariants checkViews holds every entry to its record and both
// maps to the views after every cycle of either planner.

// partView is the store of one partition's live jobs: qjobs and rjobs
// parallel st.Queue and st.Running with the records behind the
// entries.
type partView struct {
	st    sched.State
	qjobs []*queuedJob
	rjobs []*runningJob
	// widthsDirty is set when the cached width of some running job of
	// the partition was invalidated since the last snapshot.
	widthsDirty bool
}

// viewCap is how many queued and running entries a view holds before
// its first growth: the paper's scenarios never need more.
const viewCap = 4

// viewBuf holds the first arrays of one view's four job slices.
type viewBuf struct {
	queue   [viewCap]sched.Job
	running [viewCap]sched.Running
	qjobs   [viewCap]*queuedJob
	rjobs   [viewCap]*runningJob
}

// newViews makes one empty view per partition of c, in three
// allocations however many partitions there are: the views, their
// Free vectors (windows of one array) and their first job arrays.
func newViews(c *Cluster) []partView {
	n := len(c.Spec.Partitions)
	views, free, bufs := make([]partView, n), make([]int, len(c.Nodes)), make([]viewBuf, n)
	for pi, part := range c.Spec.Partitions {
		lo, b := c.Spec.NodeOffset(pi), &bufs[pi]
		views[pi] = partView{
			st: sched.State{
				Partition:    part.Name,
				CoresPerNode: part.Machine.CoresPerNode(),
				Free:         free[lo : lo+part.Nodes : lo+part.Nodes],
				Queue:        b.queue[:0],
				Running:      b.running[:0],
			},
			qjobs: b.qjobs[:0],
			rjobs: b.rjobs[:0],
		}
	}
	return views
}

// emptyViews empties each view for another run on the same layout,
// keeping its arrays.
func emptyViews(views []partView) []partView {
	for pi := range views {
		v := &views[pi]
		clear(v.st.Free)
		clear(v.st.Queue) // the entries name jobs and hold node arrays
		clear(v.st.Running)
		clear(v.qjobs)
		clear(v.rjobs)
		*v = partView{
			st: sched.State{
				Partition:    v.st.Partition,
				CoresPerNode: v.st.CoresPerNode,
				Free:         v.st.Free,
				Queue:        v.st.Queue[:0],
				Running:      v.st.Running[:0],
			},
			qjobs: v.qjobs[:0],
			rjobs: v.rjobs[:0],
		}
	}
	return views
}

// schedJob is the policy's view of a waiting job.
func schedJob(q *queuedJob) sched.Job {
	return sched.Job{
		ID:             q.seq,
		Name:           q.job.Name,
		Priority:       q.job.Priority,
		Submit:         q.submit,
		Nodes:          q.job.Nodes,
		CPUsPerNode:    q.job.CPUsPerNode(),
		MinCPUsPerNode: q.job.RanksPerNode(),
		Walltime:       q.job.Walltime,
	}
}

// schedRunning is the policy's view of a running job.
func (ctl *Controller) schedRunning(r *runningJob) sched.Running {
	return sched.Running{
		ID:             r.seq,
		Start:          r.start,
		Walltime:       r.job.Walltime,
		Nodes:          r.nodeIdxs, // partition-local indices
		CPUsPerNode:    ctl.runningCPUs(r),
		ReqCPUsPerNode: r.job.CPUsPerNode(),
		MinCPUsPerNode: r.job.RanksPerNode(),
		Malleable:      r.job.Malleable,
	}
}

// queuePos returns the position of the entry (priority, seq) in the
// view's queue order — where it is, or where it belongs.
func (v *partView) queuePos(priority, seq int) int {
	lo, hi := 0, len(v.st.Queue)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := &v.st.Queue[mid]
		if e.Priority > priority || e.Priority == priority && e.ID < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// enqueue inserts q into its partition's view, in queue order, and
// into the seq index.
//
//simvet:coldpath per submission/preempt, not per cycle
func (ctl *Controller) enqueue(q *queuedJob) {
	v := &ctl.views[q.pidx]
	i := v.queuePos(q.job.Priority, q.seq)
	v.st.Queue = slices.Insert(v.st.Queue, i, schedJob(q))
	v.qjobs = slices.Insert(v.qjobs, i, q)
	ctl.qBySeq[q.seq] = q
}

// dequeue removes q from the view of the partition it waits in and
// from the seq index.
func (ctl *Controller) dequeue(q *queuedJob) {
	v := &ctl.views[q.pidx]
	i := v.queuePos(q.job.Priority, q.seq)
	if i >= len(v.qjobs) || v.qjobs[i] != q {
		ctl.failViewMissing(q.job.Name, q.seq, v)
		return
	}
	v.st.Queue = slices.Delete(v.st.Queue, i, i+1)
	v.qjobs = slices.Delete(v.qjobs, i, i+1)
	delete(ctl.qBySeq, q.seq)
}

// addRunning appends r to its partition's view and the seq index.
func (ctl *Controller) addRunning(r *runningJob) {
	v := &ctl.views[r.pidx]
	v.st.Running = append(v.st.Running, ctl.schedRunning(r))
	v.rjobs = append(v.rjobs, r)
	ctl.rBySeq[r.seq] = r
}

// removeRunning drops r from its partition's view and the seq index.
func (ctl *Controller) removeRunning(r *runningJob) {
	v := &ctl.views[r.pidx]
	i := slices.Index(v.rjobs, r)
	if i < 0 {
		ctl.failViewMissing(r.job.Name, r.seq, v)
		return
	}
	v.st.Running = slices.Delete(v.st.Running, i, i+1)
	v.rjobs = slices.Delete(v.rjobs, i, i+1)
	delete(ctl.rBySeq, r.seq)
}

// nextQueued returns the partition whose view holds, at its cursor,
// the next job of the global queue order (priority descending,
// submission sequence ascending), or -1 when every cursor is
// exhausted. A nil cur stands for every cursor at 0: the partition of
// the global queue head.
func (ctl *Controller) nextQueued(cur []int) int {
	best := -1
	var bj *sched.Job
	for pi := range ctl.views {
		k := 0
		if cur != nil {
			k = cur[pi]
		}
		queue := ctl.views[pi].st.Queue
		if k >= len(queue) {
			continue
		}
		j := &queue[k]
		if best < 0 || j.Priority > bj.Priority || j.Priority == bj.Priority && j.ID < bj.ID {
			best, bj = pi, j
		}
	}
	return best
}

// failViewMissing fails the controller on a record its partition's
// view does not hold.
//
//simvet:coldpath error path
func (ctl *Controller) failViewMissing(name string, seq int, v *partView) {
	ctl.fail(fmt.Errorf("slurm: job %s (seq %d) missing from the view of partition %s", name, seq, v.st.Partition))
}

// unavailable is the Free entry of a down or draining node: every
// policy placement needs at least one CPU, so -1 excludes the node
// from starts, backfill projections and malleable reclaim alike.
const unavailable = -1

// snapshotPartition hands out the policy's view of partition pi for
// one pass: Now stamped, free counts re-read from the per-node cache
// (indices local to the partition), widths invalidated since the last
// pass recomputed. The State and its slices are owned by the
// controller and live across cycles: policies must treat it as
// read-only and must not retain it past the Schedule call (the
// sched.Policy contract).
func (ctl *Controller) snapshotPartition(pi int) *sched.State {
	v := &ctl.views[pi]
	st := &v.st
	st.Now = ctl.cluster.Engine.Now()
	offset := ctl.cluster.Spec.NodeOffset(pi)
	for k := range st.Free {
		st.Free[k] = unavailable
		if ctl.nodeUp(offset + k) {
			st.Free[k] = ctl.freeCount(offset + k)
		}
	}
	ctl.refreshWidths(v)
	return st
}

// refreshWidths re-reads the width of every running entry of v whose
// cached width was invalidated since the last pass.
func (ctl *Controller) refreshWidths(v *partView) {
	if !v.widthsDirty {
		return
	}
	for k, r := range v.rjobs {
		if !r.curOK {
			v.st.Running[k].CPUsPerNode = ctl.runningCPUs(r)
		}
	}
	v.widthsDirty = false
}

// checkViews is the DebugInvariants check of the store. In every
// partition's view, widths refreshed as for a pass, each entry must be
// what its record says (schedJob, schedRunning, Nodes the record's own
// nodeIdxs), each record must name the partition and be what the seq
// index holds under its seq, the queue must be in queue order, and
// every node a running job holds must lie inside the partition. The
// seq indexes hold nothing else.
//
//simvet:coldpath debug-only cross-check behind DebugInvariants
func (ctl *Controller) checkViews() {
	queued, running := 0, 0
	for pi := range ctl.views {
		v := &ctl.views[pi]
		bad := func(format string, args ...any) {
			ctl.fail(fmt.Errorf("slurm: invariant: partition %s view: %s", v.st.Partition, fmt.Sprintf(format, args...)))
		}
		if len(v.st.Queue) != len(v.qjobs) || len(v.st.Running) != len(v.rjobs) {
			bad("%d queue and %d running entries for %d and %d records", len(v.st.Queue), len(v.st.Running), len(v.qjobs), len(v.rjobs))
			continue
		}
		ctl.refreshWidths(v)
		for k, q := range v.qjobs {
			e := v.st.Queue[k]
			switch {
			case q.pidx != pi || ctl.qBySeq[q.seq] != q:
				bad("queued job %s (seq %d) targets partition %d, or its seq indexes another record", q.job.Name, q.seq, q.pidx)
			case e != schedJob(q):
				bad("queue entry %+v, its record says %+v", e, schedJob(q))
			case k > 0 && !(v.st.Queue[k-1].Priority > e.Priority || v.st.Queue[k-1].Priority == e.Priority && v.st.Queue[k-1].ID < e.ID):
				bad("queue entry %d (seq %d) is out of order", k, e.ID)
			}
		}
		for k, r := range v.rjobs {
			e, want := v.st.Running[k], ctl.schedRunning(r)
			switch {
			case r.pidx != pi || ctl.rBySeq[r.seq] != r:
				bad("running job %s (seq %d) runs in partition %d, or its seq indexes another record", r.job.Name, r.seq, r.pidx)
			case !reflect.DeepEqual(e, want) || len(e.Nodes) > 0 && &e.Nodes[0] != &r.nodeIdxs[0]:
				bad("running entry %+v, its record says %+v on the record's own Nodes array", e, want)
			case slices.ContainsFunc(r.nodeAt, func(ni int) bool { return ctl.cluster.partOf[ni] != pi }):
				bad("running job %s holds nodes %v outside the partition", r.job.Name, r.nodeAt)
			}
		}
		queued, running = queued+len(v.qjobs), running+len(v.rjobs)
	}
	if len(ctl.qBySeq) != queued || len(ctl.rBySeq) != running {
		ctl.fail(fmt.Errorf("slurm: invariant: seq indexes hold %d queued and %d running jobs, the views %d and %d",
			len(ctl.qBySeq), len(ctl.rBySeq), queued, running))
	}
}
