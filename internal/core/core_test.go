package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cpuset"
	"repro/internal/derr"
	"repro/internal/shmem"
)

func newSys(t *testing.T) *System {
	t.Helper()
	reg := shmem.NewRegistry()
	seg := reg.MustOpen("node0", cpuset.Range(0, 15), 0)
	return NewSystem(seg)
}

func attach(t *testing.T, s *System) *Admin {
	t.Helper()
	a, code := s.Attach()
	if code.IsError() {
		t.Fatalf("Attach: %v", code)
	}
	return a
}

func TestAttachDetach(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	if code := a.Detach(); code != derr.Success {
		t.Fatalf("Detach: %v", code)
	}
	if code := a.Detach(); code != derr.ErrNotInit {
		t.Errorf("double Detach = %v", code)
	}
	if _, code := a.PIDList(); code != derr.ErrNotInit {
		t.Errorf("PIDList after Detach = %v", code)
	}
	if code := a.SetProcessMask(1, cpuset.New(0), FlagNone); code != derr.ErrNotInit {
		t.Errorf("SetProcessMask after Detach = %v", code)
	}
}

func TestRegisterAndPIDList(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	m, code := s.Register(10, cpuset.Range(0, 7))
	if code != derr.Success || !m.Equal(cpuset.Range(0, 7)) {
		t.Fatalf("Register = %v/%v", m, code)
	}
	s.Register(20, cpuset.Range(8, 15))
	pids, code := a.PIDList()
	if code != derr.Success || len(pids) != 2 || pids[0] != 10 || pids[1] != 20 {
		t.Fatalf("PIDList = %v/%v", pids, code)
	}
}

func TestSetAndPollProcessMask(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))

	// Shrink to half: no conflict, no steal needed.
	if code := a.SetProcessMask(10, cpuset.Range(0, 7), FlagNone); code != derr.Success {
		t.Fatalf("SetProcessMask: %v", code)
	}
	// Admin still sees the old mask until the process polls.
	m, code := a.ProcessMask(10, FlagNone)
	if code != derr.Success || !m.Equal(cpuset.Range(0, 15)) {
		t.Fatalf("ProcessMask before poll = %v/%v", m, code)
	}
	// Process polls and applies.
	m, code = s.Poll(10)
	if code != derr.Success || !m.Equal(cpuset.Range(0, 7)) {
		t.Fatalf("Poll = %v/%v", m, code)
	}
	// Second poll: nothing pending.
	if _, code := s.Poll(10); code != derr.NoUpdate {
		t.Fatalf("second Poll = %v, want NoUpdate", code)
	}
	m, _ = a.ProcessMask(10, FlagNone)
	if !m.Equal(cpuset.Range(0, 7)) {
		t.Fatalf("ProcessMask after poll = %v", m)
	}
}

func TestSetProcessMaskValidation(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))
	if code := a.SetProcessMask(99, cpuset.New(0), FlagNone); code != derr.ErrNoProc {
		t.Errorf("missing pid = %v", code)
	}
	if code := a.SetProcessMask(10, cpuset.New(), FlagNone); code != derr.ErrInvalid {
		t.Errorf("empty mask = %v", code)
	}
	if code := a.SetProcessMask(10, cpuset.New(200), FlagNone); code != derr.ErrInvalid {
		t.Errorf("off-node mask = %v", code)
	}
}

func TestConflictWithoutStealFails(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 7))
	s.Register(20, cpuset.Range(8, 15))
	// Overlaps pid 20's CPUs; no steal flag.
	if code := a.SetProcessMask(10, cpuset.Range(0, 11), FlagNone); code != derr.ErrPerm {
		t.Fatalf("conflicting set = %v, want ErrPerm", code)
	}
	// Victim untouched.
	m, _ := a.ProcessMask(20, FlagNone)
	if !m.Equal(cpuset.Range(8, 15)) {
		t.Errorf("victim mask changed: %v", m)
	}
}

func TestStealShrinksVictim(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 7))
	s.Register(20, cpuset.Range(8, 15))

	if code := a.SetProcessMask(10, cpuset.Range(0, 11), FlagSteal); code != derr.Success {
		t.Fatalf("steal set = %v", code)
	}
	// Victim has a pending shrink to 12-15.
	e, _ := a.System().Segment().Lookup(20)
	if !e.Dirty || !e.FutureMask.Equal(cpuset.Range(12, 15)) {
		t.Fatalf("victim entry = %+v", e)
	}
	// Both processes poll; masks end up disjoint.
	m10, _ := s.Poll(10)
	m20, _ := s.Poll(20)
	if !m10.Equal(cpuset.Range(0, 11)) || !m20.Equal(cpuset.Range(12, 15)) {
		t.Fatalf("masks after poll: %v / %v", m10, m20)
	}
	if m10.Intersects(m20) {
		t.Fatal("stolen masks must be disjoint")
	}
	// Theft was recorded on the thief for PostFinalize.
	e10, _ := a.System().Segment().Lookup(10)
	if len(e10.Stolen) != 1 || e10.Stolen[0].Victim != 20 ||
		!e10.Stolen[0].Mask.Equal(cpuset.Range(8, 11)) {
		t.Fatalf("theft records = %+v", e10.Stolen)
	}
}

func TestStealAllCPUsOfVictimFails(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 7))
	s.Register(20, cpuset.Range(8, 15))
	// Taking the whole node would leave pid 20 with nothing.
	if code := a.SetProcessMask(10, cpuset.Range(0, 15), FlagSteal); code != derr.ErrPerm {
		t.Fatalf("steal-all = %v, want ErrPerm", code)
	}
}

func TestSyncSetWaitsForPoll(t *testing.T) {
	s := newSys(t)
	s.SyncTimeout = 2 * time.Second
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))

	done := make(chan derr.Code, 1)
	go func() {
		done <- a.SetProcessMask(10, cpuset.Range(0, 7), FlagSync)
	}()
	// Give the admin a moment to stage the mask; it must still be
	// blocked because nobody polled.
	time.Sleep(20 * time.Millisecond)
	select {
	case code := <-done:
		t.Fatalf("sync set returned early: %v", code)
	default:
	}
	if _, code := s.Poll(10); code != derr.Success {
		t.Fatalf("Poll: %v", code)
	}
	select {
	case code := <-done:
		if code != derr.Success {
			t.Fatalf("sync set = %v", code)
		}
	case <-time.After(time.Second):
		t.Fatal("sync set did not return after poll")
	}
}

func TestSyncSetTimesOut(t *testing.T) {
	s := newSys(t)
	s.SyncTimeout = 50 * time.Millisecond
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))
	if code := a.SetProcessMask(10, cpuset.Range(0, 7), FlagSync); code != derr.ErrTimeout {
		t.Fatalf("sync set on non-polling target = %v, want ErrTimeout", code)
	}
}

func TestSyncGetWaitsForSettled(t *testing.T) {
	s := newSys(t)
	s.SyncTimeout = 2 * time.Second
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))
	a.SetProcessMask(10, cpuset.Range(0, 7), FlagNone)

	done := make(chan cpuset.CPUSet, 1)
	go func() {
		m, _ := a.ProcessMask(10, FlagSync)
		done <- m
	}()
	time.Sleep(20 * time.Millisecond)
	s.Poll(10)
	select {
	case m := <-done:
		if !m.Equal(cpuset.Range(0, 7)) {
			t.Fatalf("sync get = %v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("sync get did not return")
	}
}

func TestPreInitHandshakeAndSteal(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15)) // running job owns the node

	// SLURM pre-initializes a new task on CPUs 8-15, stealing them.
	if code := a.PreInit(20, cpuset.Range(8, 15), FlagSteal); code != derr.Success {
		t.Fatalf("PreInit: %v", code)
	}
	// Victim shrink staged.
	e, _ := a.System().Segment().Lookup(10)
	if !e.Dirty || !e.FutureMask.Equal(cpuset.Range(0, 7)) {
		t.Fatalf("victim entry = %+v", e)
	}
	s.Poll(10)

	// The new process starts and registers with whatever mask it
	// inherited from the environment; the reserved one wins.
	m, code := s.Register(20, cpuset.Range(0, 15))
	if code != derr.Success || !m.Equal(cpuset.Range(8, 15)) {
		t.Fatalf("Register after PreInit = %v/%v", m, code)
	}
}

func TestPreInitWithoutStealOnConflict(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))
	if code := a.PreInit(20, cpuset.Range(8, 15), FlagNone); code != derr.ErrPerm {
		t.Fatalf("PreInit conflict without steal = %v, want ErrPerm", code)
	}
	// Nothing was registered and the victim is untouched.
	if _, code := a.System().Segment().Lookup(20); code != derr.ErrNoProc {
		t.Error("pid 20 should not be registered")
	}
	e, _ := a.System().Segment().Lookup(10)
	if e.Dirty {
		t.Error("victim must not be shrunk on failed PreInit")
	}
}

func TestPreInitOnFreeCPUs(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 7))
	if code := a.PreInit(20, cpuset.Range(8, 15), FlagNone); code != derr.Success {
		t.Fatalf("PreInit on free CPUs = %v", code)
	}
}

func TestPostFinalizeReturnsStolenCPUs(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))
	a.PreInit(20, cpuset.Range(8, 15), FlagSteal)
	s.Poll(10) // victim shrinks to 0-7
	s.Register(20, cpuset.Range(8, 15))

	// The analytics job (pid 20) finishes; SLURM calls PostFinalize.
	if code := a.PostFinalize(20, FlagReturnStolen); code != derr.Success {
		t.Fatalf("PostFinalize: %v", code)
	}
	// Victim gets its CPUs staged back and applies them on next poll.
	m, code := s.Poll(10)
	if code != derr.Success || !m.Equal(cpuset.Range(0, 15)) {
		t.Fatalf("victim poll after PostFinalize = %v/%v", m, code)
	}
	// pid 20 is gone.
	if _, code := a.System().Segment().Lookup(20); code != derr.ErrNoProc {
		t.Error("pid 20 should be unregistered")
	}
}

func TestPostFinalizeWithoutReturnKeepsCPUsFree(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))
	a.PreInit(20, cpuset.Range(8, 15), FlagSteal)
	s.Poll(10)
	s.Register(20, cpuset.Range(8, 15))

	if code := a.PostFinalize(20, FlagNone); code != derr.Success {
		t.Fatalf("PostFinalize: %v", code)
	}
	if _, code := s.Poll(10); code != derr.NoUpdate {
		t.Fatal("victim should have no pending update without FlagReturnStolen")
	}
	if !s.Segment().FreeMask().Equal(cpuset.Range(8, 15)) {
		t.Errorf("freed CPUs = %v", s.Segment().FreeMask())
	}
}

func TestPostFinalizeVictimGone(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))
	a.PreInit(20, cpuset.Range(8, 15), FlagSteal)
	s.Poll(10)
	s.Register(20, cpuset.Range(8, 15))
	s.Unregister(10) // victim dies first

	if code := a.PostFinalize(20, FlagReturnStolen); code != derr.Success {
		t.Fatalf("PostFinalize with dead victim = %v", code)
	}
	if s.Segment().NumProcs() != 0 {
		t.Error("all processes should be gone")
	}
}

func TestPostFinalizeMissingPID(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	if code := a.PostFinalize(99, FlagNone); code != derr.ErrNoProc {
		t.Errorf("PostFinalize missing = %v", code)
	}
}

// TestExpandToFreedCPUs models release_resources (§5, Figure 2 step 5):
// when the owner job ends, the surviving job's mask is expanded.
func TestExpandToFreedCPUs(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 7))
	s.Register(20, cpuset.Range(8, 15))
	s.Unregister(10) // job 1 completes

	free := s.Segment().FreeMask()
	if !free.Equal(cpuset.Range(0, 7)) {
		t.Fatalf("free mask = %v", free)
	}
	m, _ := a.ProcessMask(20, FlagNone)
	if code := a.SetProcessMask(20, m.Or(free), FlagNone); code != derr.Success {
		t.Fatalf("expand = %v", code)
	}
	got, _ := s.Poll(20)
	if !got.Equal(cpuset.Range(0, 15)) {
		t.Fatalf("expanded mask = %v", got)
	}
}

// Property: arbitrary sequences of steal-sets followed by polls keep
// all current masks pairwise disjoint and within the node set.
func TestPropertyDisjointMasksUnderSteal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		reg := shmem.NewRegistry()
		seg := reg.MustOpen("n", cpuset.Range(0, 15), 0)
		s := NewSystem(seg)
		a, _ := s.Attach()
		s.Register(1, cpuset.Range(0, 7))
		s.Register(2, cpuset.Range(8, 15))
		pids := []shmem.PID{1, 2}
		for step := 0; step < 40; step++ {
			pid := pids[r.Intn(2)]
			lo := r.Intn(16)
			hi := lo + r.Intn(16-lo)
			a.SetProcessMask(pid, cpuset.Range(lo, hi), FlagSteal)
			// Both processes poll in random order.
			for _, p := range []shmem.PID{pids[r.Intn(2)], 1, 2} {
				s.Poll(p)
			}
			e1, _ := a.System().Segment().Lookup(1)
			e2, _ := a.System().Segment().Lookup(2)
			if e1.CurrentMask.Intersects(e2.CurrentMask) {
				return false
			}
			if !e1.CurrentMask.IsSubsetOf(seg.NodeCPUs()) ||
				!e2.CurrentMask.IsSubsetOf(seg.NodeCPUs()) {
				return false
			}
			if e1.CurrentMask.IsEmpty() || e2.CurrentMask.IsEmpty() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: PreInit + PostFinalize(return) round-trips victim masks.
func TestPropertyPreInitPostFinalizeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		reg := shmem.NewRegistry()
		seg := reg.MustOpen("n", cpuset.Range(0, 15), 0)
		s := NewSystem(seg)
		a, _ := s.Attach()
		s.Register(1, cpuset.Range(0, 15))

		lo := r.Intn(15) + 1 // leave at least CPU 0 to the victim
		take := cpuset.Range(lo, 15)
		if a.PreInit(2, take, FlagSteal) != derr.Success {
			return false
		}
		s.Poll(1)
		s.Register(2, take)
		if a.PostFinalize(2, FlagReturnStolen) != derr.Success {
			return false
		}
		m, code := s.Poll(1)
		return code == derr.Success && m.Equal(cpuset.Range(0, 15))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// stagedLog records the PIDs a System reports staged masks for.
type stagedLog []shmem.PID

func (l *stagedLog) MaskStaged(pid shmem.PID) { *l = append(*l, pid) }

// TestWatchStagesHearsEveryStagingPath: whichever call stages a mask —
// SetProcessMask (target and steal victims), a PreInit steal, a
// PostFinalize return — the watcher hears of the PID that has one
// pending now; calls that stage nothing report nothing.
func TestWatchStagesHearsEveryStagingPath(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	var log stagedLog
	s.WatchStages(&log)
	dirty := func() []shmem.PID {
		var out []shmem.PID
		for _, e := range s.Segment().Snapshot() {
			if e.Dirty {
				out = append(out, e.PID)
			}
		}
		return out
	}
	expect := func(what string, want ...shmem.PID) {
		t.Helper()
		if len(log) != len(want) {
			t.Fatalf("%s: watcher heard %v, want %v", what, log, want)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("%s: watcher heard %v, want %v", what, log, want)
			}
		}
		// Every PID with a mask pending was reported since the last poll.
		for _, pid := range dirty() {
			found := false
			for _, h := range log {
				found = found || h == pid
			}
			if !found {
				t.Fatalf("%s: pid %d has a mask pending the watcher never heard of (%v)", what, pid, log)
			}
		}
		log = log[:0]
	}
	s.Register(1, cpuset.Range(0, 7))
	s.Register(2, cpuset.Range(8, 15))
	expect("register")

	if code := a.SetProcessMask(1, cpuset.Range(0, 3), FlagNone); code.IsError() {
		t.Fatal(code)
	}
	expect("plain SetProcessMask", 1)
	if code := a.SetProcessMask(1, cpuset.Range(0, 11), FlagSteal); code.IsError() {
		t.Fatal(code)
	}
	expect("stealing SetProcessMask", 2, 1)
	s.Poll(1)
	s.Poll(2)

	if code := a.PreInit(3, cpuset.Range(14, 15), FlagSteal); code.IsError() {
		t.Fatal(code)
	}
	expect("PreInit steal", 2)
	s.Poll(2)
	if code := a.PostFinalize(3, FlagReturnStolen); code.IsError() {
		t.Fatal(code)
	}
	expect("PostFinalize return", 2)
	s.Poll(2)

	if code := a.SetProcessMask(1, cpuset.Range(0, 13), FlagNone); code != derr.ErrPerm {
		t.Fatalf("conflicting SetProcessMask = %v", code)
	}
	expect("refused SetProcessMask")
}
