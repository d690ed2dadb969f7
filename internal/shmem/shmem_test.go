package shmem

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cpuset"
	"repro/internal/derr"
)

func newTestSegment(t *testing.T) *MemSegment {
	t.Helper()
	r := NewRegistry()
	return r.MustOpen("node0", cpuset.Range(0, 15), 0).(*MemSegment)
}

func TestRegistryOpenIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.MustOpen("n", cpuset.Range(0, 15), 8)
	b := r.MustOpen("n", cpuset.Range(0, 3), 2) // params ignored on reopen
	if a != b {
		t.Fatal("Open should return the same segment for the same name")
	}
	if b.NodeCPUs().Count() != 16 || tables(b).maxProcs != 8 {
		t.Error("reopen must not change segment parameters")
	}
	if r.Get("n") != a {
		t.Error("Get should find the segment")
	}
	if r.Get("missing") != nil {
		t.Error("Get on missing name should be nil")
	}
	r.Delete("n")
	if r.Get("n") != nil {
		t.Error("Delete should remove the segment")
	}
}

func TestAllocPIDUnique(t *testing.T) {
	r := NewRegistry()
	seen := make(map[PID]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				pid := r.AllocPID()
				mu.Lock()
				if seen[pid] {
					t.Errorf("duplicate pid %d", pid)
				}
				seen[pid] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestRegisterLookupUnregister(t *testing.T) {
	s := newTestSegment(t)
	if code := s.Register(100, cpuset.Range(0, 7)); code != derr.Success {
		t.Fatalf("Register: %v", code)
	}
	e, code := s.Lookup(100)
	if code != derr.Success {
		t.Fatalf("Lookup: %v", code)
	}
	if !e.CurrentMask.Equal(cpuset.Range(0, 7)) || !e.OwnedMask.Equal(cpuset.Range(0, 7)) {
		t.Errorf("entry masks wrong: %+v", e)
	}
	if e.Dirty || e.PreInit {
		t.Errorf("fresh entry should be clean: %+v", e)
	}
	if code := s.Register(100, cpuset.Range(8, 15)); code != derr.ErrAlreadyInit {
		t.Errorf("duplicate Register = %v, want ErrAlreadyInit", code)
	}
	if code := s.Unregister(100); code != derr.Success {
		t.Errorf("Unregister: %v", code)
	}
	if code := s.Unregister(100); code != derr.ErrNoProc {
		t.Errorf("second Unregister = %v, want ErrNoProc", code)
	}
	if _, code := s.Lookup(100); code != derr.ErrNoProc {
		t.Errorf("Lookup after Unregister = %v, want ErrNoProc", code)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := newTestSegment(t)
	if code := s.Register(1, cpuset.New()); code != derr.ErrInvalid {
		t.Errorf("empty mask = %v, want ErrInvalid", code)
	}
	if code := s.Register(1, cpuset.New(99)); code != derr.ErrInvalid {
		t.Errorf("off-node mask = %v, want ErrInvalid", code)
	}
}

func TestRegisterTableFull(t *testing.T) {
	r := NewRegistry()
	s := r.MustOpen("tiny", cpuset.Range(0, 15), 2)
	if code := s.Register(1, cpuset.New(0)); code != derr.Success {
		t.Fatal(code)
	}
	if code := s.Register(2, cpuset.New(1)); code != derr.Success {
		t.Fatal(code)
	}
	if code := s.Register(3, cpuset.New(2)); code != derr.ErrNoMem {
		t.Errorf("full table = %v, want ErrNoMem", code)
	}
}

func TestFutureMaskProtocol(t *testing.T) {
	s := newTestSegment(t)
	s.Register(1, cpuset.Range(0, 15))

	// No update pending initially.
	if _, code := s.ApplyFuture(1); code != derr.NoUpdate {
		t.Fatalf("ApplyFuture clean = %v, want NoUpdate", code)
	}

	// Admin stages a shrink.
	if code := s.SetFuture(1, cpuset.Range(0, 7)); code != derr.Success {
		t.Fatal(code)
	}
	e, _ := s.Lookup(1)
	if !e.Dirty || !e.FutureMask.Equal(cpuset.Range(0, 7)) {
		t.Fatalf("dirty entry wrong: %+v", e)
	}
	if !e.CurrentMask.Equal(cpuset.Range(0, 15)) {
		t.Fatal("current mask must not change before the target polls")
	}

	// Target polls and applies.
	m, code := s.ApplyFuture(1)
	if code != derr.Success || !m.Equal(cpuset.Range(0, 7)) {
		t.Fatalf("ApplyFuture = %v/%v", m, code)
	}
	e, _ = s.Lookup(1)
	if e.Dirty || !e.CurrentMask.Equal(cpuset.Range(0, 7)) {
		t.Fatalf("after apply: %+v", e)
	}
	if e.Stats.Polls != 2 {
		t.Errorf("Polls = %d, want 2", e.Stats.Polls)
	}
	if e.Stats.MaskChanges != 1 || e.Stats.CPUsLost != 8 {
		t.Errorf("stats = %+v", e.Stats)
	}
}

func TestSetFutureValidation(t *testing.T) {
	s := newTestSegment(t)
	s.Register(1, cpuset.Range(0, 15))
	if code := s.SetFuture(99, cpuset.New(0)); code != derr.ErrNoProc {
		t.Errorf("missing pid = %v", code)
	}
	if code := s.SetFuture(1, cpuset.New()); code != derr.ErrInvalid {
		t.Errorf("empty mask = %v", code)
	}
	if code := s.SetFuture(1, cpuset.New(200)); code != derr.ErrInvalid {
		t.Errorf("off-node mask = %v", code)
	}
}

func TestPreInitHandshake(t *testing.T) {
	s := newTestSegment(t)
	s.Register(1, cpuset.Range(0, 15))
	theft := []Theft{{Victim: 1, Mask: cpuset.Range(8, 15)}}
	if code := s.RegisterPreInit(2, cpuset.Range(8, 15), theft); code != derr.Success {
		t.Fatal(code)
	}
	e, _ := s.Lookup(2)
	if !e.PreInit {
		t.Fatal("entry should be PreInit")
	}
	if len(e.Stolen) != 1 || e.Stolen[0].Victim != 1 {
		t.Fatalf("stolen records wrong: %+v", e.Stolen)
	}
	// The process attaches; mask argument is ignored in favor of the
	// reserved one.
	if code := s.Register(2, cpuset.Range(0, 3)); code != derr.Success {
		t.Fatal(code)
	}
	e, _ = s.Lookup(2)
	if e.PreInit {
		t.Error("PreInit flag should clear after handshake")
	}
	if !e.CurrentMask.Equal(cpuset.Range(8, 15)) {
		t.Errorf("reserved mask should win: %v", e.CurrentMask)
	}
	// Double PreInit fails.
	if code := s.RegisterPreInit(2, cpuset.Range(0, 3), nil); code != derr.ErrAlreadyInit {
		t.Errorf("double PreInit = %v", code)
	}
}

func TestUsedAndFreeMask(t *testing.T) {
	s := newTestSegment(t)
	s.Register(1, cpuset.Range(0, 7))
	if !s.UsedMask().Equal(cpuset.Range(0, 7)) {
		t.Errorf("UsedMask = %v", s.UsedMask())
	}
	if !s.FreeMask().Equal(cpuset.Range(8, 15)) {
		t.Errorf("FreeMask = %v", s.FreeMask())
	}
	// A pending future mask counts as used.
	s.SetFuture(1, cpuset.Range(0, 11))
	if !s.UsedMask().Equal(cpuset.Range(0, 11)) {
		t.Errorf("UsedMask with dirty = %v", s.UsedMask())
	}
}

func TestPIDListSorted(t *testing.T) {
	s := newTestSegment(t)
	for _, pid := range []PID{30, 10, 20} {
		s.Register(pid, cpuset.New(int(pid)%16))
	}
	got := s.PIDList()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("PIDList = %v", got)
	}
	if s.NumProcs() != 3 {
		t.Errorf("NumProcs = %d", s.NumProcs())
	}
}

func TestWatchNotification(t *testing.T) {
	s := newTestSegment(t)
	s.Register(1, cpuset.Range(0, 15))
	ch := s.Watch(1)
	s.SetFuture(1, cpuset.Range(0, 7))
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("watcher not notified")
	}
	// Coalescing: two quick sets yield at least one token, no deadlock.
	s.SetFuture(1, cpuset.Range(0, 3))
	s.SetFuture(1, cpuset.Range(0, 1))
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("watcher not notified after coalesced sets")
	}
	s.Unwatch(1, ch)
	s.SetFuture(1, cpuset.Range(0, 5))
	select {
	case <-ch:
		t.Fatal("unwatched channel must not receive")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestWaitClean(t *testing.T) {
	s := newTestSegment(t)
	s.Register(1, cpuset.Range(0, 15))
	s.SetFuture(1, cpuset.Range(0, 7))

	done := make(chan derr.Code, 1)
	go func() {
		done <- s.WaitClean(1, nil)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("WaitClean returned before the target applied the mask")
	default:
	}
	s.ApplyFuture(1)
	select {
	case code := <-done:
		if code != derr.Success {
			t.Fatalf("WaitClean = %v", code)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitClean did not return after apply")
	}
}

func TestWaitCleanCancel(t *testing.T) {
	s := newTestSegment(t)
	s.Register(1, cpuset.Range(0, 15))
	s.SetFuture(1, cpuset.Range(0, 7))
	cancel := make(chan struct{})
	done := make(chan derr.Code, 1)
	go func() { done <- s.WaitClean(1, cancel) }()
	close(cancel)
	select {
	case code := <-done:
		if code != derr.ErrTimeout {
			t.Fatalf("WaitClean after cancel = %v, want ErrTimeout", code)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitClean did not honor cancellation")
	}
}

func TestWaitCleanMissingPID(t *testing.T) {
	s := newTestSegment(t)
	if code := s.WaitClean(42, nil); code != derr.ErrNoProc {
		t.Errorf("WaitClean missing pid = %v", code)
	}
}

func TestGenerationAdvances(t *testing.T) {
	s := newTestSegment(t)
	g0 := s.Generation()
	s.Register(1, cpuset.Range(0, 15))
	g1 := s.Generation()
	if g1 <= g0 {
		t.Error("Register should bump generation")
	}
	s.SetFuture(1, cpuset.Range(0, 7))
	if s.Generation() <= g1 {
		t.Error("SetFuture should bump generation")
	}
}

func TestConcurrentRegisterPoll(t *testing.T) {
	s := newTestSegment(t)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		pid := PID(1 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := s.Register(pid, cpuset.New(int(pid)-1)); code != derr.Success {
				t.Errorf("Register(%d): %v", pid, code)
				return
			}
			for j := 0; j < 50; j++ {
				s.ApplyFuture(pid)
			}
			s.Unregister(pid)
		}()
	}
	wg.Wait()
	if s.NumProcs() != 0 {
		t.Errorf("NumProcs after churn = %d", s.NumProcs())
	}
}

// Property: the sum of per-process current masks of co-registered
// processes never exceeds the node set, and UsedMask is their union.
func TestPropertyUsedMaskIsUnion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		s := reg.MustOpen("n", cpuset.Range(0, 31), 0)
		var want cpuset.CPUSet
		for pid := PID(1); pid <= 8; pid++ {
			var m cpuset.CPUSet
			for i := 0; i < 1+r.Intn(6); i++ {
				m.Set(r.Intn(32))
			}
			if s.Register(pid, m) == derr.Success {
				want = want.Or(m)
			}
		}
		return tables(s).UsedMask().Equal(want) &&
			s.FreeMask().Equal(cpuset.Range(0, 31).AndNot(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEffectiveUsedMask(t *testing.T) {
	s := newTestSegment(t)
	if !s.EffectiveUsedMask().IsEmpty() {
		t.Fatal("empty segment should have no effective usage")
	}
	if code := s.Register(1, cpuset.Range(0, 7)); code.IsError() {
		t.Fatal(code)
	}
	if code := s.Register(2, cpuset.Range(8, 11)); code.IsError() {
		t.Fatal(code)
	}
	if got, want := s.EffectiveUsedMask(), cpuset.Range(0, 11); !got.Equal(want) {
		t.Fatalf("EffectiveUsedMask = %s, want %s", got, want)
	}
	// A staged shrink is binding immediately: the dropped CPUs leave the
	// effective usage before the process polls.
	if code := s.SetFuture(1, cpuset.Range(0, 3)); code.IsError() {
		t.Fatal(code)
	}
	if got, want := s.EffectiveUsedMask(), cpuset.Range(0, 3).Or(cpuset.Range(8, 11)); !got.Equal(want) {
		t.Fatalf("after staged shrink EffectiveUsedMask = %s, want %s", got, want)
	}
	// UsedMask, by contrast, keeps the current mask too (promised CPUs).
	if got, want := s.UsedMask(), cpuset.Range(0, 11); !got.Equal(want) {
		t.Fatalf("UsedMask = %s, want %s", got, want)
	}
	if _, code := s.ApplyFuture(1); code.IsError() {
		t.Fatal(code)
	}
	if got, want := s.EffectiveUsedMask(), cpuset.Range(0, 3).Or(cpuset.Range(8, 11)); !got.Equal(want) {
		t.Fatalf("after apply EffectiveUsedMask = %s, want %s", got, want)
	}
}

// TestUnwatchDuringNotification: a watcher that unsubscribes while an
// administrator is staging masks must neither deadlock nor leave a
// stale map entry, and notifyLocked must keep serving the remaining
// watchers.
func TestUnwatchDuringNotification(t *testing.T) {
	s := newTestSegment(t)
	if code := s.Register(1, cpuset.Range(0, 3)); code.IsError() {
		t.Fatal(code)
	}
	ch1 := s.Watch(1)
	ch2 := s.Watch(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s.SetFuture(1, cpuset.Range(0, 1))
			s.ApplyFuture(1)
		}
	}()
	// Unsubscribe ch1 mid-stream, with a pending token it never drained.
	s.Unwatch(1, ch1)
	<-done
	// ch2 still receives: stage one more change.
	s.SetFuture(1, cpuset.Range(0, 2))
	select {
	case <-ch2:
	case <-time.After(time.Second):
		t.Fatal("surviving watcher missed the notification")
	}
	if n := watcherCount(s, 1); n != 1 {
		t.Fatalf("watcher count = %d, want 1", n)
	}
	s.Unwatch(1, ch2)
	if n := watcherCount(s, 1); n != 0 {
		t.Fatalf("watcher count after full unwatch = %d, want 0", n)
	}
	if len(s.watchers) != 0 {
		t.Fatalf("stale watcher map entries %v", s.watchers)
	}
	// Unwatching again (unknown channel now) is a harmless no-op.
	s.Unwatch(1, ch1)
	s.Unwatch(99, ch1)
}

// TestWatchUnregisteredPID: watching a pid with no process slot is
// legal (the watcher simply never fires until the pid registers), and
// unwatching cleans the entry up completely.
func TestWatchUnregisteredPID(t *testing.T) {
	s := newTestSegment(t)
	ch := s.Watch(42)
	// No slot: staging fails and nothing is delivered.
	if code := s.SetFuture(42, cpuset.Range(0, 1)); code != derr.ErrNoProc {
		t.Fatalf("SetFuture on unregistered pid = %v, want ErrNoProc", code)
	}
	select {
	case <-ch:
		t.Fatal("watcher fired for an unregistered pid")
	default:
	}
	// Once the pid registers, the pre-existing watch serves it.
	if code := s.Register(42, cpuset.Range(0, 3)); code.IsError() {
		t.Fatal(code)
	}
	if code := s.SetFuture(42, cpuset.Range(0, 1)); code.IsError() {
		t.Fatal(code)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("watcher registered before the pid missed its notification")
	}
	s.Unwatch(42, ch)
	if len(s.watchers) != 0 {
		t.Fatalf("stale watcher map entries %v", s.watchers)
	}
}

// TestDoubleUnregister: the second unregister reports ErrNoProc and
// mutates nothing — in particular the cpuinfo table stays consistent
// and re-registration works.
func TestDoubleUnregister(t *testing.T) {
	s := newTestSegment(t)
	if code := s.Register(7, cpuset.Range(0, 3)); code.IsError() {
		t.Fatal(code)
	}
	if code := s.Unregister(7); code.IsError() {
		t.Fatal(code)
	}
	gen := s.Generation()
	if code := s.Unregister(7); code != derr.ErrNoProc {
		t.Fatalf("second Unregister = %v, want ErrNoProc", code)
	}
	if s.Generation() != gen {
		t.Error("failed unregister bumped the generation counter")
	}
	if n := s.NumProcs(); n != 0 {
		t.Fatalf("procs = %d, want 0", n)
	}
	if code := s.Register(7, cpuset.Range(0, 3)); code.IsError() {
		t.Fatalf("re-register after double unregister: %v", code)
	}
	if got := s.UsedMask(); !got.Equal(cpuset.Range(0, 3)) {
		t.Fatalf("used mask after re-register = %v", got)
	}
}

// TestProcTableSteadyStateAllocs: on a warm segment a whole process
// lifetime — DROM_PreInit stealing from a co-tenant, the process
// attaching, a mask staged and applied, a reader's copy of the entry,
// the exit — allocates nothing: the slot and the theft array the last
// Unregister left spare serve the next registration.
func TestProcTableSteadyStateAllocs(t *testing.T) {
	s := newSegment("n", cpuset.Range(0, 15), DefaultMaxProcs)
	if c := s.Register(1000, cpuset.Range(0, 15)); c.IsError() {
		t.Fatal(c)
	}
	theft := []Theft{{Victim: 1000, Mask: cpuset.Range(8, 15)}}
	var e ProcEntry
	pid := PID(1001)
	cycle := func() {
		codes := [...]derr.Code{
			s.RegisterPreInit(pid, cpuset.Range(8, 15), theft),
			s.Register(pid, cpuset.Range(8, 15)),
			s.SetFuture(pid, cpuset.Range(8, 11)),
			func() derr.Code { _, c := s.ApplyFuture(pid); return c }(),
			s.LookupInto(pid, &e),
			s.Unregister(pid),
		}
		for i, c := range codes {
			if c.IsError() {
				t.Fatalf("step %d of pid %d's cycle: %v", i, pid, c)
			}
		}
		pid++
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("%.1f allocations per process cycle on a warm segment, want 0", n)
	}
	if len(e.Stolen) != 1 || e.Stolen[0] != theft[0] {
		t.Errorf("the reader's copy holds thefts %v, want %v", e.Stolen, theft)
	}
}
