package shmem

// Backend conformance suite: every Backend implementation must expose
// the same DROM/LeWI protocol semantics as the in-memory reference.
// Each conformance case runs against the mem backend, the file backend
// (on a private temp directory) and a zero-rate fault backend (which
// must be a perfect pass-through). The fault-injection behaviors
// themselves are covered in fault_test.go; cross-process file behavior
// in file_test.go.

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cpuset"
	"repro/internal/derr"
)

// conformanceBackends returns fresh instances of every backend, keyed
// by a stable name.
func conformanceBackends(t *testing.T) map[string]Backend {
	t.Helper()
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{
		"mem":   NewMemBackend(),
		"file":  fb,
		"fault": NewFaultBackend(NewMemBackend(), FaultConfig{Seed: 1}),
	}
}

func forEachBackend(t *testing.T, fn func(t *testing.T, b Backend)) {
	t.Helper()
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			fn(t, b)
		})
	}
}

func TestConformanceOpenGetNamesDelete(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		if got := b.Get("absent"); got != nil {
			t.Fatalf("Get(absent) = %v, want nil", got)
		}
		s, err := b.Open("node0", cpuset.Range(0, 15), 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != "node0" || !s.NodeCPUs().Equal(cpuset.Range(0, 15)) {
			t.Fatalf("shape = %s/%v", s.Name(), s.NodeCPUs())
		}
		if tables(s).maxProcs != DefaultMaxProcs {
			t.Fatalf("MaxProcs = %d, want default %d", tables(s).maxProcs, DefaultMaxProcs)
		}
		// Reopen is idempotent and ignores the new shape.
		s2, err := b.Open("node0", cpuset.Range(0, 3), 7)
		if err != nil {
			t.Fatal(err)
		}
		if !s2.NodeCPUs().Equal(cpuset.Range(0, 15)) {
			t.Fatalf("reopen changed shape to %v", s2.NodeCPUs())
		}
		if _, err := b.Open("node1", cpuset.Range(0, 7), 0); err != nil {
			t.Fatal(err)
		}
		if names := b.Names(); len(names) != 2 || names[0] != "node0" || names[1] != "node1" {
			t.Fatalf("Names = %v", names)
		}
		if b.Get("node1") == nil {
			t.Fatal("Get(node1) = nil after Open")
		}
		b.Delete("node1")
		if b.Get("node1") != nil {
			t.Fatal("Get(node1) alive after Delete")
		}
		if names := b.Names(); len(names) != 1 {
			t.Fatalf("Names after delete = %v", names)
		}
	})
}

func TestConformanceAllocPIDUnique(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		seen := make(map[PID]bool)
		for i := 0; i < 32; i++ {
			pid := b.AllocPID()
			if pid <= 0 || seen[pid] {
				t.Fatalf("AllocPID #%d = %d (dup=%v)", i, pid, seen[pid])
			}
			seen[pid] = true
		}
	})
}

func TestConformanceDROMFlow(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		s, err := b.Open("n", cpuset.Range(0, 15), 0)
		if err != nil {
			t.Fatal(err)
		}
		if code := s.Register(1, cpuset.Range(0, 7)); code != derr.Success {
			t.Fatalf("Register = %v", code)
		}
		if code := s.Register(1, cpuset.Range(0, 7)); code != derr.ErrAlreadyInit {
			t.Fatalf("double Register = %v", code)
		}
		e, code := s.Lookup(1)
		if code != derr.Success || !e.CurrentMask.Equal(cpuset.Range(0, 7)) {
			t.Fatalf("Lookup = %+v/%v", e, code)
		}
		if n := s.NumProcs(); n != 1 {
			t.Fatalf("NumProcs = %d", n)
		}
		// Stage a shrink; the entry turns dirty, the effective-used set
		// follows the staged future immediately.
		if code := s.SetFuture(1, cpuset.Range(0, 3)); code != derr.Success {
			t.Fatalf("SetFuture = %v", code)
		}
		if e, _ := s.Lookup(1); !e.Dirty || !e.FutureMask.Equal(cpuset.Range(0, 3)) {
			t.Fatalf("staged entry = %+v", e)
		}
		if got := s.EffectiveUsedMask(); !got.Equal(cpuset.Range(0, 3)) {
			t.Fatalf("EffectiveUsedMask = %v", got)
		}
		if got := tables(s).UsedMask(); !got.Equal(cpuset.Range(0, 7)) {
			t.Fatalf("UsedMask = %v", got)
		}
		mask, code := s.ApplyFuture(1)
		if code != derr.Success || !mask.Equal(cpuset.Range(0, 3)) {
			t.Fatalf("ApplyFuture = %v/%v", mask, code)
		}
		if _, code := s.ApplyFuture(1); code != derr.NoUpdate {
			t.Fatalf("clean ApplyFuture = %v", code)
		}
		if st, ok := s.StatsOf(1); !ok || st.Polls != 2 || st.MaskChanges != 1 {
			t.Fatalf("stats = %+v ok=%v", st, ok)
		}
		// Credited polls count like clean polls issued one by one: the
		// counter moves, the generation does not, an unknown pid is
		// ignored.
		gen := tables(s).Generation()
		s.CreditPolls(1, 40)
		s.CreditPolls(99, 7)
		if st, _ := s.StatsOf(1); st.Polls != 42 || st.MaskChanges != 1 {
			t.Fatalf("stats after CreditPolls = %+v", st)
		}
		if _, code := s.ApplyFuture(1); code != derr.NoUpdate {
			t.Fatalf("ApplyFuture after CreditPolls = %v", code)
		}
		if st, _ := s.StatsOf(1); st.Polls != 43 || tables(s).Generation() != gen {
			t.Fatalf("stats = %+v, generation %d -> %d", st, gen, tables(s).Generation())
		}
		if code := s.Unregister(1); code != derr.Success {
			t.Fatalf("Unregister = %v", code)
		}
		if _, code := s.Lookup(1); code != derr.ErrNoProc {
			t.Fatalf("Lookup after Unregister = %v", code)
		}
	})
}

func TestConformancePreInitHandshakeAndTheft(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		s, err := b.Open("n", cpuset.Range(0, 15), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Register(1, cpuset.Range(0, 15))
		// Steal CPUs 8-15 from pid 1 for the new pid 2.
		thefts, code := s.ResolveThefts(nil, 2, cpuset.Range(8, 15), true)
		if code != derr.Success || len(thefts) != 1 || thefts[0].Victim != 1 {
			t.Fatalf("ResolveThefts = %+v/%v", thefts, code)
		}
		if code := s.RegisterPreInit(2, cpuset.Range(8, 15), thefts); code != derr.Success {
			t.Fatalf("RegisterPreInit = %v", code)
		}
		// The victim is dirty with the shrunk mask staged.
		if code := s.SetFuture(1, cpuset.Range(0, 7)); code != derr.Success {
			t.Fatalf("stage victim shrink = %v", code)
		}
		if mask, code := s.ApplyFuture(1); code != derr.Success || !mask.Equal(cpuset.Range(0, 7)) {
			t.Fatalf("victim ApplyFuture = %v/%v", mask, code)
		}
		// The thief completes the handshake with a plain Register.
		if code := s.Register(2, cpuset.Range(8, 15)); code != derr.Success {
			t.Fatalf("handshake Register = %v", code)
		}
		if e, _ := s.Lookup(2); e.PreInit || len(e.Stolen) != 1 {
			t.Fatalf("thief entry = %+v", e)
		}
		var union cpuset.CPUSet
		for _, pid := range s.PIDList() {
			e, _ := s.Lookup(pid)
			if union.Intersects(e.CurrentMask) {
				t.Fatalf("overlapping masks at pid %d", pid)
			}
			union = union.Or(e.CurrentMask)
		}
		if !union.Equal(cpuset.Range(0, 15)) {
			t.Fatalf("union = %v", union)
		}
	})
}

func TestConformanceLewiFlow(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		s, err := b.Open("n", cpuset.Range(0, 15), 0)
		if err != nil {
			t.Fatal(err)
		}
		if code := s.ClaimCPUs(1, cpuset.Range(0, 7)); code != derr.Success {
			t.Fatalf("Claim = %v", code)
		}
		if code := s.ClaimCPUs(2, cpuset.Range(4, 11)); code != derr.ErrPerm {
			t.Fatalf("overlapping claim = %v", code)
		}
		s.ClaimCPUs(2, cpuset.Range(8, 15))
		if code := s.LendCPUs(1, cpuset.Range(4, 7)); code != derr.Success {
			t.Fatalf("Lend = %v", code)
		}
		if tab, _ := cpuTable(t, tables(s)); !scanAll(&tab, isLent).Equal(cpuset.Range(4, 7)) {
			t.Fatalf("lent = %v", scanAll(&tab, isLent))
		}
		got := s.BorrowCPUs(2, 2)
		if got.Count() != 2 || !got.IsSubsetOf(cpuset.Range(4, 7)) {
			t.Fatalf("Borrow = %v", got)
		}
		if gm := s.GuestMask(2); !gm.Equal(cpuset.Range(8, 15).Or(got)) {
			t.Fatalf("borrower GuestMask = %v", gm)
		}
		recovered, pending := s.ReclaimCPUs(1, cpuset.Range(0, 7))
		if !recovered.Equal(cpuset.Range(4, 7).AndNot(got)) || !pending.Equal(got) {
			t.Fatalf("Reclaim = %v/%v", recovered, pending)
		}
		back := s.PollReclaim(2)
		if !back.Equal(got) {
			t.Fatalf("PollReclaim = %v", back)
		}
		// PollReclaim is advisory: the borrower returns the CPUs, and
		// reclaim-pending ones go straight back to the owner as guest.
		if code := s.LendCPUs(2, back); code != derr.Success {
			t.Fatalf("return borrowed = %v", code)
		}
		if gm := s.GuestMask(1); !gm.Equal(cpuset.Range(0, 7)) {
			t.Fatalf("owner GuestMask after return = %v", gm)
		}
		if tables(s).cpus[0].owner != 1 || tables(s).cpus[4].guest != 1 {
			t.Fatalf("owner/guest = %d/%d", tables(s).cpus[0].owner, tables(s).cpus[4].guest)
		}
		if code := s.ReleaseCPUs(1, cpuset.Range(0, 3)); code != derr.Success {
			t.Fatalf("Release = %v", code)
		}
		if tables(s).cpus[0].owner != 0 {
			t.Fatalf("released CPU owner = %d", tables(s).cpus[0].owner)
		}
	})
}

// TestConformanceNodeSizedTable runs the LeWI flow on a node whose
// CPUs sit at the top of the cpuset (192-255) and on one with holes,
// on every backend: the table serves exactly the node's CPUs, a CPU
// outside the node — a hole, one below the node, one past its highest
// — gets no state from any call, and a fork and a file round trip see
// the same table.
func TestConformanceNodeSizedTable(t *testing.T) {
	for _, tc := range []struct {
		name          string
		node, outside cpuset.CPUSet
	}{
		{"high", cpuset.Range(192, 255), cpuset.New(0, 100, 191)},
		{"holes", cpuset.New(0, 1, 2, 3, 8, 9, 10, 11, 40, 41), cpuset.New(4, 12, 39, 42, 255)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forEachBackend(t, func(t *testing.T, b Backend) {
				s, err := b.Open("n", tc.node, 0)
				if err != nil {
					t.Fatal(err)
				}
				cpus := tc.node.List()
				half := cpuset.New(cpus[:len(cpus)/2]...)
				rest := tc.node.AndNot(half)
				lend := half.TakeHighest(2)
				if code := s.Register(1, half.Or(tc.outside)); code != derr.ErrInvalid {
					t.Fatalf("Register outside the node = %v", code)
				}
				s.Register(1, half)
				s.Register(2, rest)
				if code := s.ClaimCPUs(1, half.Or(tc.outside)); code != derr.Success {
					t.Fatalf("Claim = %v", code)
				}
				if code := s.ClaimCPUs(2, rest.Or(tc.outside)); code != derr.Success {
					t.Fatalf("second Claim over the same outside CPUs = %v", code)
				}
				if got := tables(s).OwnerMask(1); !got.Equal(half) {
					t.Fatalf("OwnerMask(1) = %v, want %v", got, half)
				}
				s.LendCPUs(1, lend.Or(tc.outside))
				got := s.BorrowCPUs(2, -1)
				if !got.Equal(lend) {
					t.Fatalf("Borrow = %v, want %v", got, lend)
				}
				if gm := s.GuestMask(2); !gm.Equal(rest.Or(lend)) {
					t.Fatalf("borrower GuestMask = %v", gm)
				}
				recovered, pending := s.ReclaimCPUs(1, half.Or(tc.outside))
				if !recovered.IsEmpty() || !pending.Equal(lend) {
					t.Fatalf("Reclaim = %v/%v", recovered, pending)
				}
				if back := s.PollReclaim(2); !back.Equal(lend) {
					t.Fatalf("PollReclaim = %v", back)
				}
				if idle := tables(s).IdleMask(); !idle.IsEmpty() {
					t.Fatalf("IdleMask = %v", idle)
				}
				m := tables(s)
				if len(m.cpus) != tc.node.Last()+1 {
					t.Fatalf("table has %d slots, want %d", len(m.cpus), tc.node.Last()+1)
				}
				dec, err := decodeSegment(encodeSegment(m))
				if err != nil {
					t.Fatal(err)
				}
				f := tables(s.fork())
				for _, v := range []*MemSegment{dec, f} {
					if v.live != m.live || !slices.Equal(v.cpus, m.cpus) {
						t.Fatalf("copied table differs: live %v, want %v", v.live, m.live)
					}
				}
				s.ReleaseCPUs(2, tc.outside)
				if gm := s.GuestMask(2); !gm.Equal(rest.Or(lend)) {
					t.Fatalf("GuestMask after releasing outside CPUs = %v", gm)
				}
				s.Unregister(2)
				if idle := tables(s).IdleMask(); !idle.Equal(rest) {
					t.Fatalf("IdleMask after Unregister = %v, want %v", idle, rest)
				}
			})
		})
	}
}

func TestConformanceGenerationMonotonic(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		s, err := b.Open("n", cpuset.Range(0, 15), 0)
		if err != nil {
			t.Fatal(err)
		}
		last := tables(s).Generation()
		step := func(what string, mutate func()) {
			mutate()
			now := tables(s).Generation()
			if now <= last {
				t.Fatalf("%s: generation %d -> %d (not monotonic)", what, last, now)
			}
			last = now
		}
		step("register", func() { s.Register(1, cpuset.Range(0, 7)) })
		step("claim", func() { s.ClaimCPUs(1, cpuset.Range(0, 7)) })
		step("setfuture", func() { s.SetFuture(1, cpuset.Range(0, 3)) })
		step("apply", func() { s.ApplyFuture(1) })
		step("lend", func() { s.LendCPUs(1, cpuset.Range(2, 3)) })
		step("borrow", func() {
			s.Register(2, cpuset.Range(8, 9))
			s.BorrowCPUs(2, 1)
		})
		step("resize", func() { s.SetResizeRequest(1, 4) })
		step("unregister", func() { s.Unregister(1) })
	})
}

func TestConformanceWatch(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		s, err := b.Open("n", cpuset.Range(0, 15), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Register(7, cpuset.Range(0, 7))
		ch := s.Watch(7)
		if n := watcherCount(s, 7); n != 1 {
			t.Fatalf("WatcherCount = %d", n)
		}
		if code := s.SetFuture(7, cpuset.Range(0, 3)); code != derr.Success {
			t.Fatalf("SetFuture = %v", code)
		}
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("watcher never notified of staged mask")
		}
		if mask, code := s.ApplyFuture(7); code != derr.Success || !mask.Equal(cpuset.Range(0, 3)) {
			t.Fatalf("ApplyFuture after notify = %v/%v", mask, code)
		}
		s.Unwatch(7, ch)
		if n := watcherCount(s, 7); n != 0 {
			t.Fatalf("WatcherCount after Unwatch = %d", n)
		}
	})
}

func TestConformanceWaitClean(t *testing.T) {
	forEachBackend(t, func(t *testing.T, b Backend) {
		s, err := b.Open("n", cpuset.Range(0, 15), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Register(1, cpuset.Range(0, 7))
		// Clean entry: returns immediately.
		if code := s.WaitClean(1, nil); code != derr.Success {
			t.Fatalf("WaitClean clean = %v", code)
		}
		if code := s.WaitClean(99, nil); code != derr.ErrNoProc {
			t.Fatalf("WaitClean missing = %v", code)
		}
		// Dirty entry: returns once the target polls.
		s.SetFuture(1, cpuset.Range(0, 3))
		done := make(chan derr.Code, 1)
		go func() { done <- s.WaitClean(1, nil) }()
		time.Sleep(5 * time.Millisecond)
		s.ApplyFuture(1)
		select {
		case code := <-done:
			if code != derr.Success {
				t.Fatalf("WaitClean = %v", code)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("WaitClean never returned after ApplyFuture")
		}
		// Cancelled wait times out.
		s.SetFuture(1, cpuset.Range(0, 1))
		cancel := make(chan struct{})
		go func() { done <- s.WaitClean(1, cancel) }()
		time.Sleep(5 * time.Millisecond)
		close(cancel)
		select {
		case code := <-done:
			if code != derr.ErrTimeout {
				t.Fatalf("cancelled WaitClean = %v", code)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("cancelled WaitClean never returned")
		}
	})
}

// TestConformanceSnapshotAgainstReference drives an identical op
// sequence through every backend and requires the final snapshots to
// match the in-memory reference field for field.
func TestConformanceSnapshotAgainstReference(t *testing.T) {
	run := func(b Backend) []ProcEntry {
		s, err := b.Open("n", cpuset.Range(0, 15), 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Register(1, cpuset.Range(0, 7))
		s.Register(2, cpuset.Range(8, 15))
		s.ClaimCPUs(1, cpuset.Range(0, 7))
		s.ClaimCPUs(2, cpuset.Range(8, 15))
		s.SetFuture(1, cpuset.Range(0, 3))
		s.ApplyFuture(1)
		s.LendCPUs(1, cpuset.Range(4, 7))
		s.BorrowCPUs(2, 2)
		s.SetResizeRequest(2, 4)
		s.SetFuture(2, cpuset.Range(8, 11))
		return s.Snapshot()
	}
	ref := run(NewMemBackend())
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			defer b.Close()
			got := run(b)
			if len(got) != len(ref) {
				t.Fatalf("snapshot size = %d, want %d", len(got), len(ref))
			}
			byPID := make(map[PID]ProcEntry)
			for _, e := range got {
				byPID[e.PID] = e
			}
			for _, want := range ref {
				g, ok := byPID[want.PID]
				if !ok {
					t.Fatalf("pid %d missing", want.PID)
				}
				if fmt.Sprintf("%+v", g) != fmt.Sprintf("%+v", want) {
					t.Errorf("pid %d:\n got %+v\nwant %+v", want.PID, g, want)
				}
			}
		})
	}
}
