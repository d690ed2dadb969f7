package slurm

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/sched"
)

// Incremental per-partition policy views. A policy pass used to start
// by rebuilding the partition's sched.State from the controller's job
// records: one pointer chase and one 80–96-byte copy per queued and
// per running job, per partition, per cycle — under a standing backlog
// more work than the policy then spent deciding. The views keep that
// State alive between cycles instead, edited where the records change:
//
//	enqueue / dequeue            insert / remove the Queue entry, in order
//	addRunning / removeRunning   append / remove the Running entry
//	invalidateWidth              mark the partition's widths dirty
//	SetQueuedMalleable           re-insert the entry with the new flag
//
// ctl.queue and ctl.running stay the source of truth; a view is derived
// state in exactly the order a rebuild produces (Queue: priority
// descending, then seq ascending — the global queue order filtered by
// partition; Running: launch order). Free is not edited in place: the
// per-node popcount cache beside nodeFree makes re-reading it a load
// per node.
//
// While viewsStale is set — a controller that has not run a policy
// cycle yet, or a Fork child — the edit hooks do nothing, and the first
// policy cycle rebuilds every view from the records (buildView, the
// from-scratch builder). Under DebugInvariants the same builder is the
// oracle: after every cycle each view must equal a fresh rebuild.

// partView is the controller-owned policy view of one partition. qjobs
// and rjobs parallel st.Queue and st.Running with the records behind
// the entries.
type partView struct {
	st    sched.State
	qjobs []*queuedJob
	rjobs []*runningJob
	// widthsDirty is set when the cached width of some running job of
	// the partition was invalidated since the last snapshot.
	widthsDirty bool
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
		Malleable:      q.job.Malleable,
	}
}

// schedRunning is the policy's view of a running job.
func (ctl *Controller) schedRunning(r *runningJob) sched.Running {
	return sched.Running{
		ID:             r.seq,
		Name:           r.job.Name,
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

// viewEnqueue inserts q into its partition's view.
func (ctl *Controller) viewEnqueue(q *queuedJob) {
	if ctl.viewsStale {
		return
	}
	v := &ctl.views[q.pidx]
	i := v.queuePos(q.job.Priority, q.seq)
	v.st.Queue = slices.Insert(v.st.Queue, i, schedJob(q))
	v.qjobs = slices.Insert(v.qjobs, i, q)
}

// viewDequeue removes q from the view of the partition it waits in.
func (ctl *Controller) viewDequeue(q *queuedJob) {
	if ctl.viewsStale {
		return
	}
	v := &ctl.views[q.pidx]
	i := v.queuePos(q.job.Priority, q.seq)
	if i >= len(v.qjobs) || v.qjobs[i] != q {
		ctl.failViewMissing(q.job.Name, q.seq, v)
		return
	}
	v.st.Queue = slices.Delete(v.st.Queue, i, i+1)
	v.qjobs = slices.Delete(v.qjobs, i, i+1)
}

// viewAddRunning appends r to its partition's view.
func (ctl *Controller) viewAddRunning(r *runningJob) {
	if ctl.viewsStale {
		return
	}
	v := &ctl.views[r.pidx]
	v.st.Running = append(v.st.Running, ctl.schedRunning(r))
	v.rjobs = append(v.rjobs, r)
}

// viewRemoveRunning removes r from its partition's view.
func (ctl *Controller) viewRemoveRunning(r *runningJob) {
	if ctl.viewsStale {
		return
	}
	v := &ctl.views[r.pidx]
	i := slices.Index(v.rjobs, r)
	if i < 0 {
		ctl.failViewMissing(r.job.Name, r.seq, v)
		return
	}
	v.st.Running = slices.Delete(v.st.Running, i, i+1)
	v.rjobs = slices.Delete(v.rjobs, i, i+1)
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
	if v.widthsDirty {
		for k, r := range v.rjobs {
			if !r.curOK {
				st.Running[k].CPUsPerNode = ctl.runningCPUs(r)
			}
		}
		v.widthsDirty = false
	}
	return st
}

// buildView rebuilds partition pi's view into v from the controller's
// records alone: free counts from the effective-free masks, the queued
// jobs targeting the partition in queue order, the running jobs inside
// it in launch order. It is what every policy pass used to do; now it
// runs when the views are stale (first policy cycle, Fork child) and
// as the DebugInvariants oracle.
//
//simvet:coldpath stale-view rebuild and debug oracle only
func (ctl *Controller) buildView(pi int, v *partView) {
	part := ctl.cluster.Spec.Partitions[pi]
	st := &v.st
	st.Now = ctl.cluster.Engine.Now()
	st.Partition = part.Name
	st.CoresPerNode = part.Machine.CoresPerNode()
	st.Free = st.Free[:0]
	st.Queue = st.Queue[:0]
	st.Running = st.Running[:0]
	v.qjobs = v.qjobs[:0]
	v.rjobs = v.rjobs[:0]
	offset := ctl.cluster.Spec.NodeOffset(pi)
	for k := 0; k < part.Nodes; k++ {
		free := unavailable
		if ctl.nodeUp(offset + k) {
			free = ctl.effectiveFree(offset + k).Count()
		}
		st.Free = append(st.Free, free)
	}
	for _, q := range ctl.queue {
		if q.pidx == pi {
			st.Queue = append(st.Queue, schedJob(q))
			v.qjobs = append(v.qjobs, q)
		}
	}
	for _, r := range ctl.running {
		if r.pidx == pi {
			st.Running = append(st.Running, ctl.schedRunning(r))
			v.rjobs = append(v.rjobs, r)
		}
	}
	v.widthsDirty = false
}

// rebuildViews brings every partition's view up to date from the
// records and switches the edit hooks on.
//
//simvet:coldpath first policy cycle of a controller or a fork
func (ctl *Controller) rebuildViews() {
	if ctl.views == nil {
		ctl.views = make([]partView, len(ctl.cluster.Spec.Partitions))
	}
	for pi := range ctl.views {
		ctl.buildView(pi, &ctl.views[pi])
	}
	ctl.viewsStale = false
}

// checkViews is the DebugInvariants oracle of the incremental views:
// each partition's view, refreshed as for a pass, must equal a
// from-scratch rebuild — free counts, queue and running entries,
// element order and the records behind them.
//
//simvet:coldpath debug-only cross-check behind DebugInvariants
func (ctl *Controller) checkViews() {
	if ctl.viewsStale {
		return
	}
	var want partView
	for pi := range ctl.views {
		v := &ctl.views[pi]
		got := ctl.snapshotPartition(pi)
		ctl.buildView(pi, &want)
		var diff string
		switch {
		case !slices.Equal(got.Free, want.st.Free):
			diff = fmt.Sprintf("free %v, rebuild says %v", got.Free, want.st.Free)
		case !slices.Equal(got.Queue, want.st.Queue) || !slices.Equal(v.qjobs, want.qjobs):
			diff = fmt.Sprintf("queue %+v, rebuild says %+v", got.Queue, want.st.Queue)
		case !slices.EqualFunc(got.Running, want.st.Running, sameRunning) || !slices.Equal(v.rjobs, want.rjobs):
			diff = fmt.Sprintf("running %+v, rebuild says %+v", got.Running, want.st.Running)
		default:
			continue
		}
		ctl.fail(fmt.Errorf("slurm: invariant: partition %s incremental view diverged: %s", got.Partition, diff))
	}
}

// sameRunning compares two Running entries, Nodes by content.
func sameRunning(a, b sched.Running) bool { return reflect.DeepEqual(a, b) }
