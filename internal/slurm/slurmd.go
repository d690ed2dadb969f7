package slurm

import (
	"cmp"
	"slices"

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
// post_term); the controller reads only how many there are.
type LaunchPlan struct {
	// NewTaskMasks has one mask per new task, in task order.
	NewTaskMasks []cpuset.CPUSet
	// Shrinks holds each running task that shrinks with its new
	// (smaller) mask, in the order of the running jobs and their tasks.
	Shrinks []TaskInfo
}

// planner is the task/affinity plugin's scratch: the controller owns
// one, and launch_request (launch) and release_resources (expand)
// write their plans into buffers it keeps — the per-entry bounds and
// allocations of the equipartition, the per-task splits — so planning
// allocates nothing once they are warm. Single goroutine; every buffer
// is rewritten before it is read.
type planner struct {
	pool              []int // launch: indices of the malleable running jobs
	mins, maxs, alloc []int
	per               []int // one job's per-task split
	wants             []int // expand: indices of the jobs below their request
	got               []int // expand: CPUs handed to each task of one job
}

// waterfill equipartitions cores among requests with no minimums
// (sched.WaterfillBounded with zero floors, which always fit), into
// p.alloc.
func (p *planner) waterfill(cores int, requests []int) []int {
	p.mins = p.mins[:0]
	for range requests {
		p.mins = append(p.mins, 0)
	}
	p.alloc = sched.WaterfillBounded(p.alloc, cores, p.mins, requests)
	return p.alloc
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

// launch computes into plan the CPU distribution for launching newJob
// on a node currently hosting the given jobs. Non-malleable running
// jobs keep their CPUs untouched; malleable ones shrink toward the
// equipartition target. The new job's tasks are placed socket-aware on
// the CPUs freed plus the already-free ones ("trying to keep
// applications in separate sockets in order to improve data
// locality"). It reports false, leaving plan to be rewritten, when the
// new job cannot receive at least one CPU per task. plan's mask and
// shrink slices are reused: a plan read after the next launch into the
// same value is gone.
func (p *planner) launch(m hwmodel.Machine, running []JobOnNode, newJob *Job, plan *LaunchPlan) bool {
	cores := m.CoresPerNode()
	newTasks := newJob.RanksPerNode()

	// Reserve the CPUs of non-malleable jobs; they are not part of the
	// repartition.
	reserved := 0
	p.pool = p.pool[:0]
	for i, r := range running {
		if r.Job.Malleable {
			p.pool = append(p.pool, i)
		} else {
			reserved += r.currentCPUs()
		}
	}

	// Equipartition bounded below by one CPU per task (a running job
	// is never starved through DROM) and above by each job's request.
	p.mins, p.maxs = p.mins[:0], p.maxs[:0]
	for _, i := range p.pool {
		p.mins = append(p.mins, len(running[i].Tasks))
		p.maxs = append(p.maxs, running[i].Job.CPUsPerNode())
	}
	p.mins = append(p.mins, newTasks)
	p.maxs = append(p.maxs, newJob.CPUsPerNode())
	alloc := sched.WaterfillBounded(p.alloc, cores-reserved, p.mins, p.maxs)
	if alloc == nil {
		return false // the minimum allocations do not fit the node
	}
	p.alloc = alloc
	newAlloc := alloc[len(alloc)-1]

	plan.NewTaskMasks = slices.Grow(plan.NewTaskMasks[:0], newTasks)
	plan.Shrinks = plan.Shrinks[:0]

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
	for k, i := range p.pool {
		r := running[i]
		target := alloc[k]
		cur := r.currentCPUs()
		if target >= cur {
			// Never expand during another job's launch; keep as is.
			for _, t := range r.Tasks {
				used = used.Or(t.Mask)
			}
			continue
		}
		p.per = splitEvenInto(p.per, target, len(r.Tasks))
		for ti, t := range r.Tasks {
			keep := m.SocketAwarePick(t.Mask, p.per[ti])
			if !keep.Equal(t.Mask) {
				plan.Shrinks = append(plan.Shrinks, TaskInfo{PID: t.PID, Mask: keep})
			}
			used = used.Or(keep)
		}
	}

	// Place the new job's tasks on what is left, socket-aware.
	avail := m.NodeMask().AndNot(used)
	p.per = splitEvenInto(p.per, newAlloc, newTasks)
	for _, want := range p.per {
		mask := m.SocketAwarePick(avail, want)
		if mask.Count() < 1 {
			return false // ran out of CPUs placing the new tasks
		}
		plan.NewTaskMasks = append(plan.NewTaskMasks, mask)
		avail = avail.AndNot(mask)
	}
	return true
}

// expand computes release_resources (Figure 2 step 5) into
// grown[:0], which it returns: free CPUs are redistributed to running
// malleable jobs still below their request, socket-aware, balanced per
// task. grown receives every task that actually grows with its grown
// mask, in ascending PID order — the order the grows are applied in.
func (p *planner) expand(m hwmodel.Machine, running []JobOnNode, free cpuset.CPUSet, grown []TaskInfo) []TaskInfo {
	grown = grown[:0]
	if free.IsEmpty() {
		return grown
	}
	// Compute deficits: the jobs below their request, and by how many
	// CPUs per node.
	p.wants, p.maxs = p.wants[:0], p.maxs[:0]
	for i, r := range running {
		if !r.Job.Malleable {
			continue
		}
		if d := r.Job.CPUsPerNode() - r.currentCPUs(); d > 0 {
			p.wants = append(p.wants, i)
			p.maxs = append(p.maxs, d)
		}
	}
	if len(p.wants) == 0 {
		return grown
	}
	// Fair split of the free CPUs proportional-ish: waterfill over
	// deficits.
	alloc := p.waterfill(free.Count(), p.maxs)
	avail := free
	for i, w := range p.wants {
		if alloc[i] == 0 {
			continue
		}
		r := running[w]
		// Within the job, hand CPUs one at a time to the task furthest
		// below its per-task request ("balanced in the number of CPUs
		// for each task").
		perTaskWant := r.Job.Cfg.Threads
		got := p.got[:0]
		for range r.Tasks {
			got = append(got, 0)
		}
		p.got = got
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
			grown = append(grown, TaskInfo{PID: t.PID, Mask: t.Mask.Or(extra)})
		}
	}
	slices.SortFunc(grown, func(a, b TaskInfo) int { return cmp.Compare(a.PID, b.PID) })
	return grown
}
