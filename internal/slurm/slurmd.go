package slurm

import (
	"fmt"

	"repro/internal/cpuset"
	"repro/internal/hwmodel"
	"repro/internal/sched"
	"repro/internal/shmem"
)

// TaskInfo is one running task (MPI rank) on a node as slurmd sees it.
type TaskInfo struct {
	PID  shmem.PID
	Mask cpuset.CPUSet
}

// JobOnNode is a running job's footprint on one node.
type JobOnNode struct {
	Job   *Job
	Tasks []TaskInfo
}

func (j JobOnNode) currentCPUs() int {
	n := 0
	for _, t := range j.Tasks {
		n += t.Mask.Count()
	}
	return n
}

// LaunchPlan is the output of the task/affinity plugin's
// launch_request (Figure 2 step 1): masks for the new job's tasks on
// this node, and the shrunken masks running tasks will adopt. The
// shrinks are informational — slurmstepd realizes them by calling
// DROM_PreInit with the steal flag on the new masks, which stages
// exactly these keeps on the victims (and records the thefts for
// post_term).
type LaunchPlan struct {
	// NewTaskMasks has one mask per new task, in task order.
	NewTaskMasks []cpuset.CPUSet
	// Shrinks maps running-task PIDs to their new (smaller) masks.
	Shrinks map[shmem.PID]cpuset.CPUSet
}

// waterfill equipartitions cores among requests with no minimums
// (sched.WaterfillBounded with zero floors, which always fit).
func waterfill(cores int, requests []int) []int {
	return sched.WaterfillBounded(make([]int, 0, len(requests)), cores, make([]int, len(requests)), requests)
}

// splitEvenInto divides total into n parts differing by at most one,
// larger parts first, writing into a caller-owned buffer (nil
// allocates).
func splitEvenInto(dst []int, total, n int) []int {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		v := total / n
		if i < total%n {
			v++
		}
		dst = append(dst, v)
	}
	return dst
}

// PlanLaunch computes the CPU distribution for launching newJob on a
// node currently hosting the given jobs. Non-malleable running jobs
// keep their CPUs untouched; malleable ones shrink toward the
// equipartition target. The new job's tasks are placed socket-aware on
// the CPUs freed plus the already-free ones ("trying to keep
// applications in separate sockets in order to improve data
// locality"). It fails when the new job cannot receive at least one
// CPU per task.
func PlanLaunch(m hwmodel.Machine, running []JobOnNode, newJob *Job) (LaunchPlan, error) {
	cores := m.CoresPerNode()
	newTasks := newJob.RanksPerNode()

	// Reserve the CPUs of non-malleable jobs; they are not part of the
	// repartition.
	reserved := 0
	var pool []JobOnNode
	for _, r := range running {
		if r.Job.Malleable {
			pool = append(pool, r)
		} else {
			reserved += r.currentCPUs()
		}
	}

	// Equipartition bounded below by one CPU per task (a running job
	// is never starved through DROM) and above by each job's request.
	var mins, maxs []int
	for _, r := range pool {
		mins = append(mins, len(r.Tasks))
		maxs = append(maxs, r.Job.CPUsPerNode())
	}
	mins = append(mins, newTasks)
	maxs = append(maxs, newJob.CPUsPerNode())
	alloc := sched.WaterfillBounded(make([]int, 0, len(mins)), cores-reserved, mins, maxs)
	if alloc == nil {
		return LaunchPlan{}, fmt.Errorf("slurm: node cannot host %s: %d CPUs cannot satisfy the minimum allocations",
			newJob.Name, cores-reserved)
	}
	newAlloc := alloc[len(alloc)-1]

	plan := LaunchPlan{Shrinks: make(map[shmem.PID]cpuset.CPUSet)}

	// Shrink running malleable jobs to their targets, keeping each
	// task compact on its own socket(s).
	used := cpuset.CPUSet{}
	for _, r := range running {
		if !r.Job.Malleable {
			for _, t := range r.Tasks {
				used = used.Or(t.Mask)
			}
		}
	}
	for i, r := range pool {
		target := alloc[i]
		cur := r.currentCPUs()
		if target >= cur {
			// Never expand during another job's launch; keep as is.
			for _, t := range r.Tasks {
				used = used.Or(t.Mask)
			}
			continue
		}
		perTask := splitEvenInto(nil, target, len(r.Tasks))
		for ti, t := range r.Tasks {
			keep := m.SocketAwarePick(t.Mask, perTask[ti])
			if !keep.Equal(t.Mask) {
				plan.Shrinks[t.PID] = keep
			}
			used = used.Or(keep)
		}
	}

	// Place the new job's tasks on what is left, socket-aware.
	avail := m.NodeMask().AndNot(used)
	perTask := splitEvenInto(nil, newAlloc, newTasks)
	for _, want := range perTask {
		mask := m.SocketAwarePick(avail, want)
		if mask.Count() < 1 {
			return LaunchPlan{}, fmt.Errorf("slurm: ran out of CPUs placing %s", newJob.Name)
		}
		plan.NewTaskMasks = append(plan.NewTaskMasks, mask)
		avail = avail.AndNot(mask)
	}
	return plan, nil
}

// PlanExpand computes release_resources (Figure 2 step 5): free CPUs
// are redistributed to running malleable jobs still below their
// request, socket-aware, balanced per task. It returns the grown masks
// per task PID (only tasks that actually grow appear).
func PlanExpand(m hwmodel.Machine, running []JobOnNode, free cpuset.CPUSet) map[shmem.PID]cpuset.CPUSet {
	grown := make(map[shmem.PID]cpuset.CPUSet)
	if free.IsEmpty() {
		return grown
	}
	// Compute deficits.
	type want struct {
		idx     int
		deficit int
	}
	var wants []want
	for i, r := range running {
		if !r.Job.Malleable {
			continue
		}
		d := r.Job.CPUsPerNode() - r.currentCPUs()
		if d > 0 {
			wants = append(wants, want{i, d})
		}
	}
	if len(wants) == 0 {
		return grown
	}
	// Fair split of the free CPUs proportional-ish: waterfill over
	// deficits.
	reqs := make([]int, len(wants))
	for i, w := range wants {
		reqs[i] = w.deficit
	}
	alloc := waterfill(free.Count(), reqs)
	avail := free
	for i, w := range wants {
		if alloc[i] == 0 {
			continue
		}
		r := running[w.idx]
		// Within the job, hand CPUs one at a time to the task furthest
		// below its per-task request ("balanced in the number of CPUs
		// for each task").
		perTaskWant := r.Job.Cfg.Threads
		got := make([]int, len(r.Tasks))
		for k := 0; k < alloc[i]; k++ {
			best := -1
			for ti, t := range r.Tasks {
				deficit := perTaskWant - t.Mask.Count() - got[ti]
				if deficit <= 0 {
					continue
				}
				if best < 0 || deficit > perTaskWant-r.Tasks[best].Mask.Count()-got[best] {
					best = ti
				}
			}
			if best < 0 {
				break
			}
			got[best]++
		}
		for ti, t := range r.Tasks {
			if got[ti] == 0 {
				continue
			}
			extra := m.SocketAwarePick(avail, got[ti])
			if extra.IsEmpty() {
				continue
			}
			avail = avail.AndNot(extra)
			grown[t.PID] = t.Mask.Or(extra)
		}
	}
	return grown
}
