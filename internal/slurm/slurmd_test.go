package slurm

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/cpuset"
	"repro/internal/hwmodel"
	"repro/internal/shmem"
)

func randNew(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// planLaunch runs launch_request on a fresh planner into a fresh plan.
func planLaunch(m hwmodel.Machine, running []JobOnNode, j *Job) (LaunchPlan, bool) {
	var plan LaunchPlan
	ok := new(planner).launch(m, running, j, &plan)
	return plan, ok
}

// planExpand runs release_resources on a fresh planner.
func planExpand(m hwmodel.Machine, running []JobOnNode, free cpuset.CPUSet) map[shmem.PID]cpuset.CPUSet {
	grown := make(map[shmem.PID]cpuset.CPUSet)
	new(planner).expand(m, running, free, grown)
	return grown
}

// waterfill runs the planner's zero-floor equipartition on a fresh
// planner.
func waterfill(cores int, requests []int) []int { return new(planner).waterfill(cores, requests) }

func TestWaterfillEquipartition(t *testing.T) {
	// Two jobs both wanting the whole 16-core node: 8/8 (the UC2 case).
	got := waterfill(16, []int{16, 16})
	if got[0] != 8 || got[1] != 8 {
		t.Errorf("waterfill = %v", got)
	}
	// Small request is satisfied fully; the big one takes the rest
	// (the UC1 Pils Conf. 2 case).
	got = waterfill(16, []int{16, 1})
	if got[0] != 15 || got[1] != 1 {
		t.Errorf("waterfill = %v", got)
	}
	// Three-way with leftovers.
	got = waterfill(16, []int{16, 16, 16})
	if got[0]+got[1]+got[2] != 16 {
		t.Errorf("waterfill sum = %v", got)
	}
	for _, a := range got {
		if a < 5 || a > 6 {
			t.Errorf("uneven waterfill = %v", got)
		}
	}
	// Undersubscribed: everyone gets their request.
	got = waterfill(16, []int{4, 2})
	if got[0] != 4 || got[1] != 2 {
		t.Errorf("waterfill = %v", got)
	}
}

func TestWaterfillProperties(t *testing.T) {
	f := func(coresRaw uint8, reqsRaw []uint8) bool {
		cores := int(coresRaw)%64 + 1
		if len(reqsRaw) == 0 || len(reqsRaw) > 8 {
			return true
		}
		reqs := make([]int, len(reqsRaw))
		total := 0
		for i, r := range reqsRaw {
			reqs[i] = int(r)%32 + 1
			total += reqs[i]
		}
		alloc := waterfill(cores, reqs)
		sum := 0
		for i, a := range alloc {
			if a < 0 || a > reqs[i] {
				return false
			}
			sum += a
		}
		if sum > cores {
			return false
		}
		// Work-conserving: if demand >= cores, everything is handed out.
		if total >= cores && sum != cores {
			return false
		}
		if total < cores && sum != total {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSplitEven(t *testing.T) {
	got := splitEvenInto(nil, 7, 3)
	if got[0] != 3 || got[1] != 2 || got[2] != 2 {
		t.Errorf("splitEven = %v", got)
	}
	got = splitEvenInto(got, 8, 2)
	if got[0] != 4 || got[1] != 4 {
		t.Errorf("splitEven = %v", got)
	}
}

func mkJob(name string, ranks, threads, nodes int, malleable bool) *Job {
	return &Job{
		Name: name, Spec: apps.NEST(), Cfg: apps.Config{Ranks: ranks, Threads: threads},
		Nodes: nodes, Malleable: malleable,
	}
}

func TestPlanLaunchEmptyNode(t *testing.T) {
	m := hwmodel.MN3()
	plan, ok := planLaunch(m, nil, mkJob("a", 2, 16, 2, true))
	if !ok {
		t.Fatal("launch refused")
	}
	if len(plan.NewTaskMasks) != 1 || plan.NewTaskMasks[0].Count() != 16 {
		t.Fatalf("plan = %+v", plan)
	}
	if len(plan.Shrinks) != 0 {
		t.Errorf("shrinks on empty node: %v", plan.Shrinks)
	}
}

func TestPlanLaunchTwoTasksPerNode(t *testing.T) {
	m := hwmodel.MN3()
	// Conf. 2: 4 ranks over 2 nodes = 2 tasks of 8 threads per node.
	plan, ok := planLaunch(m, nil, mkJob("a", 4, 8, 2, true))
	if !ok {
		t.Fatal("launch refused")
	}
	if len(plan.NewTaskMasks) != 2 {
		t.Fatalf("tasks = %d", len(plan.NewTaskMasks))
	}
	// Tasks land on separate sockets, disjoint.
	m0, m1 := plan.NewTaskMasks[0], plan.NewTaskMasks[1]
	if m0.Intersects(m1) {
		t.Error("task masks overlap")
	}
	if m0.Count() != 8 || m1.Count() != 8 {
		t.Errorf("task sizes = %d/%d", m0.Count(), m1.Count())
	}
	s0 := m0.And(m.SocketMask(0)).Count()
	s1 := m1.And(m.SocketMask(1)).Count()
	if s0 != 8 && s1 != 8 {
		t.Errorf("tasks not socket-separated: %v / %v", m0, m1)
	}
}

func TestPlanLaunchEquipartitionUC2(t *testing.T) {
	m := hwmodel.MN3()
	running := []JobOnNode{{
		Job:   mkJob("nest", 2, 16, 2, true),
		Tasks: []TaskInfo{{PID: 100, Mask: cpuset.Range(0, 15)}},
	}}
	plan, ok := planLaunch(m, running, mkJob("coreneuron", 2, 16, 2, true))
	if !ok {
		t.Fatal("launch refused")
	}
	// Equipartition: 8 for each, new on one socket, victim keeps one.
	shrunk, ok := plan.Shrinks[100]
	if !ok || shrunk.Count() != 8 {
		t.Fatalf("victim shrink = %v (ok=%v)", shrunk, ok)
	}
	if len(plan.NewTaskMasks) != 1 || plan.NewTaskMasks[0].Count() != 8 {
		t.Fatalf("new masks = %v", plan.NewTaskMasks)
	}
	if shrunk.Intersects(plan.NewTaskMasks[0]) {
		t.Error("new job overlaps shrunken victim")
	}
	// Socket separation.
	vs0 := shrunk.And(m.SocketMask(0)).Count()
	ns1 := plan.NewTaskMasks[0].And(m.SocketMask(1)).Count()
	if vs0 != 8 || ns1 != 8 {
		t.Errorf("not socket-separated: victim %v new %v", shrunk, plan.NewTaskMasks[0])
	}
}

func TestPlanLaunchSmallAnalytics(t *testing.T) {
	m := hwmodel.MN3()
	running := []JobOnNode{{
		Job:   mkJob("nest", 2, 16, 2, true),
		Tasks: []TaskInfo{{PID: 100, Mask: cpuset.Range(0, 15)}},
	}}
	// Pils Conf. 2: one task of 1 thread per node.
	plan, ok := planLaunch(m, running, mkJob("pils", 2, 1, 2, true))
	if !ok {
		t.Fatal("launch refused")
	}
	if plan.Shrinks[100].Count() != 15 {
		t.Fatalf("victim keeps %d CPUs, want 15", plan.Shrinks[100].Count())
	}
	if plan.NewTaskMasks[0].Count() != 1 {
		t.Fatalf("analytics mask = %v", plan.NewTaskMasks[0])
	}
}

func TestPlanLaunchRespectsNonMalleable(t *testing.T) {
	m := hwmodel.MN3()
	running := []JobOnNode{{
		Job:   mkJob("rigid", 2, 12, 2, false),
		Tasks: []TaskInfo{{PID: 100, Mask: cpuset.Range(0, 11)}},
	}}
	plan, ok := planLaunch(m, running, mkJob("new", 2, 4, 2, true))
	if !ok {
		t.Fatal("launch refused")
	}
	if len(plan.Shrinks) != 0 {
		t.Errorf("rigid job was shrunk: %v", plan.Shrinks)
	}
	if !plan.NewTaskMasks[0].Equal(cpuset.Range(12, 15)) {
		t.Errorf("new mask = %v", plan.NewTaskMasks[0])
	}
	// A big malleable job next to a rigid one starts shrunk onto the
	// leftover CPUs (it cannot steal from the rigid job).
	big, ok := planLaunch(m, running, mkJob("big", 2, 16, 2, true))
	if !ok {
		t.Fatal("big launch next to rigid refused")
	}
	if len(big.Shrinks) != 0 {
		t.Errorf("rigid job was shrunk: %v", big.Shrinks)
	}
	if big.NewTaskMasks[0].Count() != 4 {
		t.Errorf("big job should start on the 4 leftover CPUs, got %v", big.NewTaskMasks[0])
	}
}

func TestPlanLaunchFailsWhenTooCrowded(t *testing.T) {
	m := hwmodel.MN3()
	var running []JobOnNode
	// 16 single-CPU malleable jobs fill the node.
	for i := 0; i < 16; i++ {
		running = append(running, JobOnNode{
			Job:   mkJob("j", 2, 1, 2, true),
			Tasks: []TaskInfo{{PID: shmem.PID(100 + i), Mask: cpuset.New(i)}},
		})
	}
	if _, ok := planLaunch(m, running, mkJob("new", 2, 2, 2, true)); ok {
		t.Error("over-crowded launch should fail")
	}
}

func TestPlanExpand(t *testing.T) {
	m := hwmodel.MN3()
	running := []JobOnNode{{
		Job:   mkJob("nest", 2, 16, 2, true),
		Tasks: []TaskInfo{{PID: 100, Mask: cpuset.Range(0, 7)}},
	}}
	grown := planExpand(m, running, cpuset.Range(8, 15))
	if got := grown[100]; !got.Equal(cpuset.Range(0, 15)) {
		t.Fatalf("expanded mask = %v", got)
	}
	// Nothing free → nothing grows.
	if g := planExpand(m, running, cpuset.CPUSet{}); len(g) != 0 {
		t.Errorf("expand with no free CPUs = %v", g)
	}
	// Job at its request does not grow.
	at := []JobOnNode{{
		Job:   mkJob("s", 2, 2, 2, true),
		Tasks: []TaskInfo{{PID: 5, Mask: cpuset.Range(0, 1)}},
	}}
	if g := planExpand(m, at, cpuset.Range(8, 15)); len(g) != 0 {
		t.Errorf("satisfied job grew: %v", g)
	}
}

// TestPropertyPlanLaunch: for random running layouts and new jobs,
// a successful plan yields pairwise-disjoint new-task masks that avoid
// every non-shrunk running CPU, fit the node, and respect the shrinks.
func TestPropertyPlanLaunch(t *testing.T) {
	var shared planner
	var sharedPlan LaunchPlan
	f := func(seed int64) bool {
		r := randNew(seed)
		m := hwmodel.MN3()
		// Random running jobs: 0-3 jobs with 1-2 tasks, disjoint masks.
		var running []JobOnNode
		avail := m.NodeMask()
		pid := shmem.PID(100)
		for j := 0; j < r.Intn(4) && avail.Count() > 2; j++ {
			tasks := 1 + r.Intn(2)
			jb := JobOnNode{Job: mkJob("r", 2*tasks, 8, 2, r.Intn(4) != 0)}
			for k := 0; k < tasks && !avail.IsEmpty(); k++ {
				take := avail.TakeLowest(1 + r.Intn(avail.Count()))
				avail = avail.AndNot(take)
				jb.Tasks = append(jb.Tasks, TaskInfo{PID: pid, Mask: take})
				pid++
			}
			running = append(running, jb)
		}
		newTasks := 1 + r.Intn(2)
		newJob := mkJob("new", newTasks*2, 1+r.Intn(8), 2, true)
		plan, ok := planLaunch(m, running, newJob)
		// The controller's planner plans into the buffers of earlier
		// plans: it must come to the fresh planner's verdict and plan.
		if shared.launch(m, running, newJob, &sharedPlan) != ok {
			return false
		}
		if !ok {
			return true // infeasible is a legal outcome
		}
		if !slices.Equal(sharedPlan.NewTaskMasks, plan.NewTaskMasks) || !maps.Equal(sharedPlan.Shrinks, plan.Shrinks) {
			return false
		}
		// New masks pairwise disjoint, non-empty, within the node.
		var union cpuset.CPUSet
		for _, mask := range plan.NewTaskMasks {
			if mask.IsEmpty() || !mask.IsSubsetOf(m.NodeMask()) || union.Intersects(mask) {
				return false
			}
			union = union.Or(mask)
		}
		// They avoid all kept CPUs: each running task's planned mask is
		// its shrink if present, else its current mask.
		for _, jb := range running {
			for _, task := range jb.Tasks {
				kept := task.Mask
				if sh, ok := plan.Shrinks[task.PID]; ok {
					if !jb.Job.Malleable {
						return false // rigid jobs must never shrink
					}
					if !sh.IsSubsetOf(task.Mask) || sh.IsEmpty() {
						return false
					}
					kept = sh
				}
				if union.Intersects(kept) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlanExpandSharesAmongJobs(t *testing.T) {
	m := hwmodel.MN3()
	running := []JobOnNode{
		{Job: mkJob("a", 2, 16, 2, true), Tasks: []TaskInfo{{PID: 1, Mask: cpuset.Range(0, 3)}}},
		{Job: mkJob("b", 2, 16, 2, true), Tasks: []TaskInfo{{PID: 2, Mask: cpuset.Range(4, 7)}}},
	}
	grown := planExpand(m, running, cpuset.Range(8, 15))
	total := 0
	for pid, mask := range grown {
		var before cpuset.CPUSet
		if pid == 1 {
			before = cpuset.Range(0, 3)
		} else {
			before = cpuset.Range(4, 7)
		}
		total += mask.AndNot(before).Count()
	}
	if total != 8 {
		t.Errorf("distributed %d CPUs, want 8", total)
	}
	if grown[1].Intersects(grown[2]) {
		t.Error("expanded masks overlap")
	}
}
