package core

// Failure-injection tests (DESIGN.md §6): process death without
// PostFinalize, stale PIDs, conflicting administrators, and sync
// timeouts against dead or non-polling targets.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cpuset"
	"repro/internal/derr"
	"repro/internal/shmem"
)

// TestProcessDiesWithoutPostFinalize: the victim's CPUs remain marked
// used until somebody cleans the slot; cleanup via Unregister frees
// them and a later PostFinalize reports ErrNoProc instead of
// corrupting state.
func TestProcessDiesWithoutPostFinalize(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))
	a.PreInit(20, cpuset.Range(8, 15), FlagSteal)
	s.Poll(10)
	s.Register(20, cpuset.Range(8, 15))

	// Process 20 dies abruptly: its slot survives (leaked), so its
	// CPUs still look used.
	if !s.Segment().FreeMask().IsEmpty() {
		t.Fatalf("free mask = %v", s.Segment().FreeMask())
	}
	// A janitor (or the node manager) unregisters the dead pid.
	if code := s.Unregister(20); code != derr.Success {
		t.Fatal(code)
	}
	if !s.Segment().FreeMask().Equal(cpuset.Range(8, 15)) {
		t.Fatalf("free mask after cleanup = %v", s.Segment().FreeMask())
	}
	// PostFinalize on the stale pid fails cleanly.
	if code := a.PostFinalize(20, FlagReturnStolen); code != derr.ErrNoProc {
		t.Errorf("PostFinalize stale = %v", code)
	}
	// The victim never gets its CPUs back automatically (the thief's
	// theft records died with it) but can be expanded explicitly.
	if _, code := s.Poll(10); code != derr.NoUpdate {
		t.Error("victim should have no pending update")
	}
	if code := a.SetProcessMask(10, cpuset.Range(0, 15), FlagNone); code.IsError() {
		t.Errorf("manual expand = %v", code)
	}
}

// TestStalePIDOperations: every admin operation on an unknown pid
// fails with ErrNoProc and mutates nothing.
func TestStalePIDOperations(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 7))
	seg := s.Segment().(*shmem.MemSegment)
	gen := seg.Generation()

	if _, code := a.ProcessMask(99, FlagNone); code != derr.ErrNoProc {
		t.Errorf("ProcessMask = %v", code)
	}
	if code := a.SetProcessMask(99, cpuset.New(0), FlagNone); code != derr.ErrNoProc {
		t.Errorf("SetProcessMask = %v", code)
	}
	if _, code := a.Stats(99); code != derr.ErrNoProc {
		t.Errorf("Stats = %v", code)
	}
	if code := a.PostFinalize(99, FlagNone); code != derr.ErrNoProc {
		t.Errorf("PostFinalize = %v", code)
	}
	if seg.Generation() != gen {
		t.Error("failed operations must not mutate shared memory")
	}
}

// TestSyncSetAgainstDeadTarget: a FlagSync set against a process that
// will never poll times out rather than hanging.
func TestSyncSetAgainstDeadTarget(t *testing.T) {
	s := newSys(t)
	s.SyncTimeout = 30 * time.Millisecond
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))
	start := time.Now()
	if code := a.SetProcessMask(10, cpuset.Range(0, 7), FlagSync); code != derr.ErrTimeout {
		t.Fatalf("sync vs dead target = %v", code)
	}
	if time.Since(start) > time.Second {
		t.Error("timeout took too long")
	}
}

// TestSyncSetTargetDiesMidWait: the target unregisters while an admin
// waits synchronously; the wait ends with ErrNoProc, not a hang.
func TestSyncSetTargetDiesMidWait(t *testing.T) {
	s := newSys(t)
	s.SyncTimeout = 2 * time.Second
	a := attach(t, s)
	s.Register(10, cpuset.Range(0, 15))
	done := make(chan derr.Code, 1)
	go func() { done <- a.SetProcessMask(10, cpuset.Range(0, 7), FlagSync) }()
	time.Sleep(20 * time.Millisecond)
	s.Unregister(10)
	select {
	case code := <-done:
		if code != derr.ErrNoProc {
			t.Fatalf("sync after death = %v, want ErrNoProc", code)
		}
	case <-time.After(time.Second):
		t.Fatal("sync set hung after target death")
	}
}

// TestConflictingAdmins: two administrators fight over the same
// process; shared memory stays consistent (last staged mask wins, all
// masks stay disjoint and in-range).
func TestConflictingAdmins(t *testing.T) {
	reg := shmem.NewRegistry()
	seg := reg.MustOpen("n", cpuset.Range(0, 15), 0)
	s := NewSystem(seg)
	a1 := attach(t, s)
	a2 := attach(t, s)
	s.Register(1, cpuset.Range(0, 7))
	s.Register(2, cpuset.Range(8, 15))

	var wg sync.WaitGroup
	for i, admin := range []*Admin{a1, a2} {
		wg.Add(1)
		go func(i int, ad *Admin) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				lo := (i*4 + k) % 12
				ad.SetProcessMask(1, cpuset.Range(lo, lo+3), FlagSteal)
				s.Poll(1)
				s.Poll(2)
			}
		}(i, admin)
	}
	wg.Wait()
	e1, _ := a1.System().Segment().Lookup(1)
	e2, _ := a1.System().Segment().Lookup(2)
	if e1.CurrentMask.Intersects(e2.CurrentMask) {
		t.Fatalf("masks overlap after admin fight: %v / %v", e1.CurrentMask, e2.CurrentMask)
	}
	if e1.CurrentMask.IsEmpty() || e2.CurrentMask.IsEmpty() {
		t.Fatal("a process lost all CPUs")
	}
	if !e1.CurrentMask.Or(e2.CurrentMask).IsSubsetOf(cpuset.Range(0, 15)) {
		t.Fatal("masks escaped the node")
	}
}

// TestDetachedAdminCannotAct covers admin lifecycle misuse under
// concurrency: operations after Detach consistently fail.
func TestDetachedAdminCannotAct(t *testing.T) {
	s := newSys(t)
	a := attach(t, s)
	s.Register(1, cpuset.Range(0, 7))
	a.Detach()
	if code := a.PreInit(2, cpuset.New(8), FlagNone); code != derr.ErrNotInit {
		t.Errorf("PreInit after detach = %v", code)
	}
	if _, code := a.Stats(1); code != derr.ErrNotInit {
		t.Errorf("Stats after detach = %v", code)
	}
}
