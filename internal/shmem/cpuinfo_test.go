package shmem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cpuset"
	"repro/internal/derr"
)

func TestClaimRelease(t *testing.T) {
	s := newTestSegment(t)
	if code := s.ClaimCPUs(1, cpuset.Range(0, 7)); code != derr.Success {
		t.Fatal(code)
	}
	if s.cpus[0].owner != 1 || s.cpus[0].guest != 1 {
		t.Errorf("cpu 0 owner/guest = %d/%d", s.cpus[0].owner, s.cpus[0].guest)
	}
	// Conflicting claim fails and mutates nothing.
	if code := s.ClaimCPUs(2, cpuset.Range(4, 11)); code != derr.ErrPerm {
		t.Fatalf("overlapping claim = %v", code)
	}
	if s.cpus[8].owner != 0 {
		t.Error("failed claim must not take any CPU")
	}
	// Re-claiming your own CPUs is fine.
	if code := s.ClaimCPUs(1, cpuset.Range(0, 7)); code != derr.Success {
		t.Errorf("idempotent claim = %v", code)
	}
	s.ReleaseCPUs(1, cpuset.Range(0, 3))
	if s.cpus[0].owner != 0 || s.cpus[4].owner != 1 {
		t.Error("partial release wrong")
	}
}

func TestOwnerGuestMasks(t *testing.T) {
	s := newTestSegment(t)
	s.ClaimCPUs(1, cpuset.Range(0, 7))
	s.ClaimCPUs(2, cpuset.Range(8, 15))
	if !s.OwnerMask(1).Equal(cpuset.Range(0, 7)) {
		t.Errorf("OwnerMask(1) = %v", s.OwnerMask(1))
	}
	if !s.GuestMask(2).Equal(cpuset.Range(8, 15)) {
		t.Errorf("GuestMask(2) = %v", s.GuestMask(2))
	}
	if !s.IdleMask().IsEmpty() {
		t.Errorf("IdleMask = %v, want empty", s.IdleMask())
	}
}

func TestLendBorrowReturn(t *testing.T) {
	s := newTestSegment(t)
	s.ClaimCPUs(1, cpuset.Range(0, 7))
	s.ClaimCPUs(2, cpuset.Range(8, 15))

	// Process 1 blocks in MPI and lends half its CPUs.
	s.LendCPUs(1, cpuset.Range(4, 7))
	if tab, _ := cpuTable(t, s); !scanAll(&tab, isLent).Equal(cpuset.Range(4, 7)) {
		t.Fatalf("lent = %v", scanAll(&tab, isLent))
	}
	if !s.IdleMask().Equal(cpuset.Range(4, 7)) {
		t.Fatalf("IdleMask = %v", s.IdleMask())
	}

	// Process 2 borrows up to 2 CPUs.
	got := s.BorrowCPUs(2, 2)
	if got.Count() != 2 || !got.IsSubsetOf(cpuset.Range(4, 7)) {
		t.Fatalf("BorrowCPUs = %v", got)
	}
	if !s.GuestMask(2).Equal(cpuset.Range(8, 15).Or(got)) {
		t.Errorf("GuestMask(2) = %v", s.GuestMask(2))
	}

	// Borrowing more takes the rest; max<0 means all.
	rest := s.BorrowCPUs(2, -1)
	if got.Or(rest).Count() != 4 {
		t.Fatalf("total borrowed = %v", got.Or(rest))
	}
	// Nothing left to borrow.
	if m := s.BorrowCPUs(2, -1); !m.IsEmpty() {
		t.Fatalf("borrow on empty pool = %v", m)
	}

	// Borrower returns two CPUs: they stay lent (idle) because the
	// owner has not reclaimed.
	s.LendCPUs(2, got)
	if !s.IdleMask().Equal(got) {
		t.Errorf("IdleMask after return = %v", s.IdleMask())
	}
}

func TestBorrowPrefersFreeCPUs(t *testing.T) {
	r := NewRegistry()
	s := r.MustOpen("n", cpuset.Range(0, 7), 0)
	s.ClaimCPUs(1, cpuset.Range(0, 3))
	s.LendCPUs(1, cpuset.Range(0, 3))
	// CPUs 4-7 are unowned; they must be taken before lent ones.
	got := s.BorrowCPUs(2, 4)
	if !got.Equal(cpuset.Range(4, 7)) {
		t.Errorf("BorrowCPUs = %v, want free CPUs 4-7 first", got)
	}
}

func TestReclaimFlow(t *testing.T) {
	s := newTestSegment(t)
	s.ClaimCPUs(1, cpuset.Range(0, 7))
	s.ClaimCPUs(2, cpuset.Range(8, 15))
	s.LendCPUs(1, cpuset.Range(4, 7))
	borrowed := s.BorrowCPUs(2, 2) // 2 borrowed, 2 idle lent

	recovered, pending := s.ReclaimCPUs(1, cpuset.Range(0, 7))
	if !recovered.Equal(cpuset.Range(4, 7).AndNot(borrowed)) {
		t.Errorf("recovered = %v", recovered)
	}
	if !pending.Equal(borrowed) {
		t.Errorf("pending = %v, want %v", pending, borrowed)
	}

	// The borrower sees the reclaim request at its next poll.
	if m := s.PollReclaim(2); !m.Equal(borrowed) {
		t.Fatalf("PollReclaim = %v, want %v", m, borrowed)
	}
	s.LendCPUs(2, borrowed) // borrower returns
	if m := s.PollReclaim(2); !m.IsEmpty() {
		t.Errorf("PollReclaim after return = %v", m)
	}
	// Reclaim-pending CPUs go straight back to the owner on return.
	if !s.GuestMask(1).Equal(cpuset.Range(0, 7)) {
		t.Errorf("owner guest mask = %v", s.GuestMask(1))
	}
	// A further reclaim is a no-op.
	recovered, pending = s.ReclaimCPUs(1, cpuset.Range(0, 7))
	if !recovered.IsEmpty() || !pending.IsEmpty() {
		t.Errorf("idempotent reclaim = %v/%v", recovered, pending)
	}
}

func TestUnregisterCleansCpuinfo(t *testing.T) {
	s := newTestSegment(t)
	s.Register(1, cpuset.Range(0, 7))
	s.ClaimCPUs(1, cpuset.Range(0, 7))
	s.Register(2, cpuset.Range(8, 15))
	s.ClaimCPUs(2, cpuset.Range(8, 15))
	s.LendCPUs(1, cpuset.Range(4, 7))
	borrowed := s.BorrowCPUs(2, -1)
	if borrowed.IsEmpty() {
		t.Fatal("setup: borrow failed")
	}
	// Process 2 dies without returning.
	s.Unregister(2)
	for _, c := range cpuset.Range(8, 15).List() {
		if s.cpus[c].owner != 0 {
			t.Errorf("cpu %d still owned by dead pid", c)
		}
	}
	for _, c := range borrowed.List() {
		if s.cpus[c].guest == 2 {
			t.Errorf("cpu %d still guested by dead pid", c)
		}
	}
}

// Property: under arbitrary lend/borrow/reclaim/return sequences, no
// CPU ever has two guests, guests only run on owned-or-lent CPUs, and
// owners never lose ownership.
func TestPropertyLewiInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		reg := NewRegistry()
		s := reg.MustOpen("n", cpuset.Range(0, 15), 0)
		s.ClaimCPUs(1, cpuset.Range(0, 7))
		s.ClaimCPUs(2, cpuset.Range(8, 15))
		pids := []PID{1, 2}
		owned := map[PID]cpuset.CPUSet{
			1: cpuset.Range(0, 7),
			2: cpuset.Range(8, 15),
		}
		for step := 0; step < 60; step++ {
			pid := pids[r.Intn(2)]
			switch r.Intn(4) {
			case 0:
				var m cpuset.CPUSet
				for i := 0; i < r.Intn(4); i++ {
					m.Set(r.Intn(16))
				}
				s.LendCPUs(pid, m)
			case 1:
				s.BorrowCPUs(pid, r.Intn(5)-1)
			case 2:
				s.ReclaimCPUs(pid, owned[pid])
			case 3:
				s.LendCPUs(pid, s.PollReclaim(pid))
			}
			// Invariants.
			g1, g2 := s.GuestMask(1), s.GuestMask(2)
			if g1.Intersects(g2) {
				return false
			}
			if !tables(s).OwnerMask(1).Equal(owned[1]) || !tables(s).OwnerMask(2).Equal(owned[2]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// cpuTable copies a segment's cpuinfo table and live-slot set: under
// the lock for a MemSegment, decoded from the file for a FileSegment.
func cpuTable(t *testing.T, seg Segment) (tab [cpuset.MaxCPUs]cpuState, live cpuset.CPUSet) {
	t.Helper()
	read := func(m *MemSegment) { copy(tab[:], m.cpus); live = m.live }
	switch s := seg.(type) {
	case *MemSegment:
		s.mu.Lock()
		read(s)
		s.mu.Unlock()
	case *FileSegment:
		if !s.view(read) {
			t.Fatal("segment file unreadable")
		}
	default:
		t.Fatalf("no cpuinfo table in a %T", seg)
	}
	return tab, live
}

// scanAll is the set of slots of tab that match, by a scan of all of
// them.
func scanAll(tab *[cpuset.MaxCPUs]cpuState, match func(st cpuState) bool) cpuset.CPUSet {
	var m cpuset.CPUSet
	for c := range tab {
		if match(tab[c]) {
			m.Set(c)
		}
	}
	return m
}

// isLent matches a CPU its owner has handed to the pool.
func isLent(st cpuState) bool { return st.lent }

// unregisterAll is Unregister's cpuinfo pass as a scan of every slot.
func unregisterAll(tab *[cpuset.MaxCPUs]cpuState, pid PID) {
	for c := range tab {
		if tab[c].owner == pid {
			tab[c] = cpuState{}
		} else if tab[c].guest == pid {
			tab[c].guest = tab[c].owner
			tab[c].reclaimPending = false
		}
	}
}

// TestCpuinfoLiveSetDifferential runs random sequences of cpuinfo
// operations — claims, releases, lends, borrows, reclaims, unregistrations, forks and file
// round trips — on the mem and file backends, and after every one holds
// the table to scans of all 256 slots: the live set covers every
// non-zero slot, Unregister leaves the table the full scan leaves, and
// GuestMask, OwnerMask and PollReclaim answer what the scans answer.
func TestCpuinfoLiveSetDifferential(t *testing.T) {
	const pids = 5
	node := cpuset.Range(0, 47)
	for _, kind := range []string{"mem", "file"} {
		for seed := int64(1); seed <= 10; seed++ {
			var b Backend = NewMemBackend()
			if kind == "file" {
				fb, err := NewFileBackend(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				b = fb
			}
			seg, err := b.Open("n", node, 0)
			if err != nil {
				t.Fatal(err)
			}
			for pid := PID(1); pid <= pids; pid++ {
				seg.Register(pid, cpuset.New(0))
			}
			r := rand.New(rand.NewSource(seed))
			randMask := func() cpuset.CPUSet {
				var m cpuset.CPUSet
				lo := r.Intn(60)
				for i := r.Intn(8); i >= 0; i-- {
					m.Set(lo + r.Intn(4))
				}
				return m
			}
			for step := 0; step < 120; step++ {
				pid := PID(1 + r.Intn(pids))
				before, _ := cpuTable(t, seg)
				op := r.Intn(8)
				switch op {
				case 0:
					seg.ClaimCPUs(pid, randMask())
				case 1:
					seg.ReleaseCPUs(pid, randMask())
				case 2:
					seg.LendCPUs(pid, randMask())
				case 3:
					seg.BorrowCPUs(pid, r.Intn(6)-1)
				case 4:
					seg.ReclaimCPUs(pid, randMask())
				case 5:
					seg.Unregister(pid)
					unregisterAll(&before, pid)
					if tab, _ := cpuTable(t, seg); tab != before {
						t.Fatalf("%s seed %d step %d: Unregister(%d) left a table the full scan does not", kind, seed, step, pid)
					}
					seg.Register(pid, cpuset.New(0))
				case 6:
					f := seg.fork()
					if ft, _ := cpuTable(t, f); ft != before {
						t.Fatalf("%s seed %d step %d: the fork's table differs", kind, seed, step)
					}
					if kind == "mem" {
						seg = f
					}
				case 7:
					if m, ok := seg.(*MemSegment); ok {
						if seg, err = decodeSegment(encodeSegment(m)); err != nil {
							t.Fatal(err)
						}
					}
				}
				tab, live := cpuTable(t, seg)
				if nonZero := scanAll(&tab, func(st cpuState) bool { return st != cpuState{} }); !nonZero.IsSubsetOf(live) {
					t.Fatalf("%s seed %d step %d (op %d): live set %v misses non-zero slots %v", kind, seed, step, op, live, nonZero.AndNot(live))
				}
				for p := PID(1); p <= pids; p++ {
					for _, q := range []struct {
						name      string
						got, want cpuset.CPUSet
					}{
						{"GuestMask", seg.GuestMask(p), scanAll(&tab, func(st cpuState) bool { return st.guest == p })},
						{"OwnerMask", tables(seg).OwnerMask(p), scanAll(&tab, func(st cpuState) bool { return st.owner == p })},
						{"PollReclaim", seg.PollReclaim(p), scanAll(&tab, func(st cpuState) bool { return st.guest == p && st.owner != p && st.reclaimPending })},
					} {
						if !q.got.Equal(q.want) {
							t.Fatalf("%s seed %d step %d (op %d): %s(%d) = %v, full scan %v", kind, seed, step, op, q.name, p, q.got, q.want)
						}
					}
				}
			}
			b.Close()
		}
	}
}
