package sched

import (
	"math"
	"reflect"
	"testing"
)

// state16 builds a 2-node, 16-core snapshot.
func state16(free ...int) *State {
	return &State{Now: 0, CoresPerNode: 16, Free: free}
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	for alias, want := range map[string]string{
		"shrink":    "malleable-shrink",
		"malleable": "malleable-expand",
		"expand":    "malleable-expand",
	} {
		p, err := New(alias)
		if err != nil {
			t.Fatalf("New(%q): %v", alias, err)
		}
		if p.Name() != want {
			t.Errorf("alias %q resolved to %q, want %q", alias, p.Name(), want)
		}
	}
	if _, err := New("zzz"); err == nil {
		t.Error("New(zzz) should fail")
	}
}

func TestFCFSHeadOfLineBlocks(t *testing.T) {
	s := state16(4, 4)
	s.Queue = []Job{
		{ID: 1, Nodes: 2, CPUsPerNode: 8, MinCPUsPerNode: 1},
		{ID: 2, Nodes: 1, CPUsPerNode: 2, MinCPUsPerNode: 1},
	}
	if acts := (&FCFS{}).Schedule(s); len(acts) != 0 {
		t.Errorf("FCFS behind a blocked head started %v", acts)
	}
	// With room, jobs start in order.
	s = state16(16, 16)
	s.Queue = []Job{
		{ID: 1, Nodes: 2, CPUsPerNode: 8, MinCPUsPerNode: 1},
		{ID: 2, Nodes: 1, CPUsPerNode: 2, MinCPUsPerNode: 1},
	}
	acts := (&FCFS{}).Schedule(s)
	if len(acts) != 2 || acts[0].ID != 1 || acts[1].ID != 2 {
		t.Errorf("FCFS actions = %v", acts)
	}
}

// TestDeterministicTies: equal-priority jobs keep submission order and
// repeated scheduling of the same state yields identical actions.
func TestDeterministicTies(t *testing.T) {
	mk := func() *State {
		s := state16(16, 16)
		s.Queue = []Job{
			{ID: 3, Priority: 0, Submit: 1, Nodes: 1, CPUsPerNode: 4, MinCPUsPerNode: 1},
			{ID: 4, Priority: 0, Submit: 2, Nodes: 1, CPUsPerNode: 4, MinCPUsPerNode: 1},
			{ID: 5, Priority: 0, Submit: 3, Nodes: 1, CPUsPerNode: 4, MinCPUsPerNode: 1},
		}
		s.Running = []Running{
			{ID: 1, Start: -10, Walltime: 100, Nodes: []int{0}, CPUsPerNode: 8, ReqCPUsPerNode: 8, MinCPUsPerNode: 1, Malleable: true},
			{ID: 2, Start: -10, Walltime: 100, Nodes: []int{1}, CPUsPerNode: 8, ReqCPUsPerNode: 8, MinCPUsPerNode: 1, Malleable: true},
		}
		s.Free = []int{8, 8}
		return s
	}
	for _, name := range Names() {
		p, _ := New(name)
		a := p.Schedule(mk())
		b := p.Schedule(mk())
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: repeated scheduling differs: %v vs %v", name, a, b)
		}
		// Starts must appear in queue (submission) order.
		last := -1
		for _, act := range a {
			if act.Kind != ActStart {
				continue
			}
			if act.ID < last {
				t.Errorf("%s: starts out of order: %v", name, a)
			}
			last = act.ID
		}
	}
}

// TestEASYBackfill: a short job behind a blocked head may jump ahead;
// a long one that would delay the head's reservation may not.
func TestEASYBackfill(t *testing.T) {
	mk := func(backWall float64) *State {
		s := state16(0, 16)
		// node0 fully busy until t=100.
		s.Running = []Running{{
			ID: 1, Start: 0, Walltime: 100, Nodes: []int{0},
			CPUsPerNode: 16, ReqCPUsPerNode: 16, MinCPUsPerNode: 1,
		}}
		s.Queue = []Job{
			// Head needs both nodes: blocked until node0 frees (shadow 100).
			{ID: 2, Nodes: 2, CPUsPerNode: 16, MinCPUsPerNode: 1, Walltime: 50},
			// Candidate fits on node1 now.
			{ID: 3, Nodes: 1, CPUsPerNode: 16, MinCPUsPerNode: 1, Walltime: backWall},
		}
		return s
	}
	if acts := (&EASY{}).Schedule(mk(50)); len(acts) != 1 || acts[0].ID != 3 {
		t.Errorf("short candidate should backfill: %v", acts)
	}
	if acts := (&EASY{}).Schedule(mk(500)); len(acts) != 0 {
		t.Errorf("long candidate would delay the head: %v", acts)
	}
	// FCFS starves the backfiller either way.
	if acts := (&FCFS{}).Schedule(mk(50)); len(acts) != 0 {
		t.Errorf("FCFS should block: %v", acts)
	}
}

// TestEASYSpareCapacity: a long candidate is admitted when it fits in
// capacity the head's reservation leaves spare.
func TestEASYSpareCapacity(t *testing.T) {
	s := state16(0, 16)
	s.Running = []Running{{
		ID: 1, Start: 0, Walltime: 100, Nodes: []int{0},
		CPUsPerNode: 16, ReqCPUsPerNode: 16, MinCPUsPerNode: 1,
	}}
	s.Queue = []Job{
		// Head needs one full node: reserved on node0 at shadow 100
		// (node1 is kept free by nothing — head fits node1!). Make the
		// head need 16 CPUs and node1 partially busy instead.
		{ID: 2, Nodes: 1, CPUsPerNode: 16, MinCPUsPerNode: 1, Walltime: 50},
		// Long candidate that fits in node1's spare 8 CPUs forever.
		{ID: 3, Nodes: 1, CPUsPerNode: 8, MinCPUsPerNode: 1, Walltime: 1e6},
	}
	s.Free = []int{0, 16}
	// Head fits node1 immediately and fills the cluster; the candidate
	// becomes the new blocked head.
	acts := (&EASY{}).Schedule(s)
	if len(acts) != 1 || acts[0].ID != 2 {
		t.Fatalf("acts = %v", acts)
	}

	// Now occupy node1 half-way so the head (16 CPUs) is blocked, with
	// spare capacity at the shadow on node1 only 8 after reservation on
	// node0... head reserves node0 at t=100, node1 keeps 8 free.
	s = state16(0, 8)
	s.Running = []Running{
		{ID: 1, Start: 0, Walltime: 100, Nodes: []int{0}, CPUsPerNode: 16, ReqCPUsPerNode: 16, MinCPUsPerNode: 1},
		{ID: 4, Start: 0, Walltime: 1e5, Nodes: []int{1}, CPUsPerNode: 8, ReqCPUsPerNode: 8, MinCPUsPerNode: 1},
	}
	s.Queue = []Job{
		{ID: 2, Nodes: 1, CPUsPerNode: 16, MinCPUsPerNode: 1, Walltime: 50},
		{ID: 3, Nodes: 1, CPUsPerNode: 8, MinCPUsPerNode: 1, Walltime: 1e6},
	}
	acts = (&EASY{}).Schedule(s)
	if len(acts) != 1 || acts[0].ID != 3 {
		t.Fatalf("long candidate should use spare node1 capacity: %v", acts)
	}
}

// TestMalleableShrinkAdmitsHead: the malleable policy shrinks a
// running job through DROM to start the blocked head immediately.
func TestMalleableShrinkAdmitsHead(t *testing.T) {
	s := state16(0, 0)
	s.Running = []Running{
		{ID: 1, Start: 0, Walltime: 1000, Nodes: []int{0}, CPUsPerNode: 16, ReqCPUsPerNode: 16, MinCPUsPerNode: 2, Malleable: true},
		{ID: 2, Start: 0, Walltime: 1000, Nodes: []int{1}, CPUsPerNode: 16, ReqCPUsPerNode: 16, MinCPUsPerNode: 2, Malleable: true},
	}
	s.Queue = []Job{{ID: 3, Nodes: 2, CPUsPerNode: 16, MinCPUsPerNode: 2, Walltime: 100}}

	if acts := (&EASY{}).Schedule(s); len(acts) != 0 {
		t.Fatalf("EASY cannot admit without malleability: %v", acts)
	}
	acts := (&Malleable{}).Schedule(s)
	if len(acts) != 3 {
		t.Fatalf("want 2 shrinks + 1 start, got %v", acts)
	}
	for i, want := range []Action{
		{Kind: ActShrink, ID: 1, TargetCPUsPerNode: 8},
		{Kind: ActShrink, ID: 2, TargetCPUsPerNode: 8},
	} {
		got := acts[i]
		if got.Kind != want.Kind || got.ID != want.ID || got.TargetCPUsPerNode != want.TargetCPUsPerNode {
			t.Errorf("shrink %d = %v, want equipartition at 8", i, got)
		}
	}
	if acts[2].Kind != ActStart || acts[2].ID != 3 || acts[2].TargetCPUsPerNode != 8 {
		t.Errorf("start = %v, want start #3 at 8 cpus/node", acts[2])
	}
}

// TestMalleableShrinkRespectsFloor: victims are never shrunk below one
// CPU per task, so an infeasible head stays queued.
func TestMalleableShrinkRespectsFloor(t *testing.T) {
	s := state16(0)
	s.Free = []int{0}
	s.CoresPerNode = 16
	s.Running = []Running{
		{ID: 1, Start: 0, Walltime: 1000, Nodes: []int{0}, CPUsPerNode: 16, ReqCPUsPerNode: 16, MinCPUsPerNode: 8, Malleable: true},
	}
	// Head needs at least 16 CPUs on the node; victim floor is 8, so at
	// most 8 can be freed.
	s.Queue = []Job{{ID: 2, Nodes: 1, CPUsPerNode: 16, MinCPUsPerNode: 16, Walltime: 10}}
	if acts := (&Malleable{}).Schedule(s); len(acts) != 0 {
		t.Errorf("infeasible head admitted: %v", acts)
	}
}

// TestMalleableExpand: with the queue served, running jobs below their
// request grow back into the free CPUs, smallest allocation first.
func TestMalleableExpand(t *testing.T) {
	s := state16(8, 12)
	s.Running = []Running{
		{ID: 1, Start: 0, Walltime: 1000, Nodes: []int{0}, CPUsPerNode: 8, ReqCPUsPerNode: 16, MinCPUsPerNode: 1, Malleable: true},
		{ID: 2, Start: 0, Walltime: 1000, Nodes: []int{1}, CPUsPerNode: 4, ReqCPUsPerNode: 8, MinCPUsPerNode: 1, Malleable: true},
	}
	acts := (&Malleable{Expand: true}).Schedule(s)
	if len(acts) != 2 {
		t.Fatalf("acts = %v", acts)
	}
	for _, a := range acts {
		if a.Kind != ActExpand {
			t.Fatalf("unexpected %v", a)
		}
		switch a.ID {
		case 1:
			if a.TargetCPUsPerNode != 16 {
				t.Errorf("job 1 expanded to %d, want 16", a.TargetCPUsPerNode)
			}
		case 2:
			if a.TargetCPUsPerNode != 8 {
				t.Errorf("job 2 expanded to %d, want 8", a.TargetCPUsPerNode)
			}
		}
	}
	// The shrink-only variant leaves the CPUs free.
	if acts := (&Malleable{}).Schedule(s); len(acts) != 0 {
		t.Errorf("malleable-shrink should not expand: %v", acts)
	}
}

// TestReservationUnknownWalltime: jobs without estimates get
// DefaultWalltime, keeping the shadow finite.
func TestReservationUnknownWalltime(t *testing.T) {
	s := state16(0, 16)
	s.Running = []Running{{
		ID: 1, Start: 0, Nodes: []int{0}, CPUsPerNode: 16,
		ReqCPUsPerNode: 16, MinCPUsPerNode: 1,
	}}
	var sc scratch
	sc.reset(s)
	head := Job{ID: 2, Nodes: 2, CPUsPerNode: 16, MinCPUsPerNode: 1}
	shadow, _ := sc.reservation(s, sc.free, &head, nil)
	if shadow != DefaultWalltime {
		t.Errorf("shadow = %v, want DefaultWalltime %v", shadow, DefaultWalltime)
	}
	// A head too wide for the machine never fits: infinite shadow.
	sc.reset(s)
	wide := Job{ID: 3, Nodes: 3, CPUsPerNode: 16, MinCPUsPerNode: 1}
	shadow, _ = sc.reservation(s, sc.free, &wide, nil)
	if !math.IsInf(shadow, 1) {
		t.Errorf("impossible head shadow = %v, want +Inf", shadow)
	}
}

// TestScheduleSteadyStateAllocs pins the allocation profile of the
// cycle loop: after one warm-up cycle every policy must schedule a
// busy, contended state without heap allocations — placements,
// reservations, equipartitions and the action list all run on the
// instance's scratch buffers.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	mk := func() *State {
		s := state16(2, 5, 0, 16)
		s.CoresPerNode = 16
		s.Queue = []Job{
			{ID: 10, Nodes: 2, CPUsPerNode: 12, MinCPUsPerNode: 2, Walltime: 500},
			{ID: 11, Nodes: 1, CPUsPerNode: 2, MinCPUsPerNode: 1, Walltime: 50},
			{ID: 12, Nodes: 1, CPUsPerNode: 4, MinCPUsPerNode: 1, Walltime: 5000},
		}
		s.Running = []Running{
			{ID: 1, Start: 0, Walltime: 900, Nodes: []int{0}, CPUsPerNode: 14,
				ReqCPUsPerNode: 16, MinCPUsPerNode: 2, Malleable: true},
			{ID: 2, Start: 0, Walltime: 300, Nodes: []int{1}, CPUsPerNode: 11,
				ReqCPUsPerNode: 16, MinCPUsPerNode: 1, Malleable: true},
			{ID: 3, Start: 0, Walltime: 100, Nodes: []int{2}, CPUsPerNode: 16,
				ReqCPUsPerNode: 16, MinCPUsPerNode: 4, Malleable: true},
		}
		return s
	}
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		s := mk()
		p.Schedule(s) // warm up the scratch buffers
		if avg := testing.AllocsPerRun(50, func() { p.Schedule(s) }); avg > 0 {
			t.Errorf("%s: %.1f allocs per cycle in steady state, want 0", name, avg)
		}
	}
}
