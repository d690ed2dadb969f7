package lewi

import (
	"testing"

	"repro/internal/cpuset"
	"repro/internal/derr"
	"repro/internal/shmem"
)

func setup(t *testing.T) (*shmem.MemSegment, *Module, *Module) {
	t.Helper()
	reg := shmem.NewRegistry()
	seg := reg.MustOpen("n", cpuset.Range(0, 15), 0).(*shmem.MemSegment)
	m1, code := New(seg, 1, cpuset.Range(0, 7), LendAllButOne)
	if code.IsError() {
		t.Fatal(code)
	}
	m2, code := New(seg, 2, cpuset.Range(8, 15), LendAllButOne)
	if code.IsError() {
		t.Fatal(code)
	}
	return seg, m1, m2
}

func TestNewClaimsOwnership(t *testing.T) {
	seg, m1, _ := setup(t)
	if !seg.OwnerMask(1).Equal(cpuset.Range(0, 7)) {
		t.Errorf("owner mask = %v", seg.OwnerMask(1))
	}
	if !m1.Mask().Equal(cpuset.Range(0, 7)) {
		t.Errorf("guest mask = %v", m1.Mask())
	}
	// Conflicting claim fails.
	if _, code := New(seg, 3, cpuset.Range(4, 11), LendAll); code != derr.ErrPerm {
		t.Errorf("conflicting New = %v", code)
	}
}

func TestBlockingLendsAllButOne(t *testing.T) {
	_, m1, m2 := setup(t)
	kept := m1.EnterBlocking()
	if kept.Count() != 1 || !kept.Equal(cpuset.New(0)) {
		t.Fatalf("kept = %v, want lowest own CPU", kept)
	}
	// The peer can now borrow the 7 lent CPUs.
	got := m2.Borrow()
	if got.Count() != 7 || !got.IsSubsetOf(cpuset.Range(1, 7)) {
		t.Fatalf("borrowed = %v", got)
	}
	if m2.Mask().Count() != 15 {
		t.Errorf("peer mask = %v", m2.Mask())
	}
}

func TestLendAllPolicy(t *testing.T) {
	reg := shmem.NewRegistry()
	seg := reg.MustOpen("n", cpuset.Range(0, 7), 0).(*shmem.MemSegment)
	m, _ := New(seg, 1, cpuset.Range(0, 7), LendAll)
	kept := m.EnterBlocking()
	if !kept.IsEmpty() {
		t.Errorf("LendAll kept %v, want empty", kept)
	}
	if !seg.IdleMask().Equal(cpuset.Range(0, 7)) {
		t.Errorf("idle = %v", seg.IdleMask())
	}
}

func TestExitBlockingReclaims(t *testing.T) {
	_, m1, m2 := setup(t)
	m1.EnterBlocking()
	borrowed := m2.Borrow()
	if borrowed.IsEmpty() {
		t.Fatal("setup: borrow failed")
	}

	mask, pending := m1.ExitBlocking()
	// Everything borrowed is pending; the rest came back immediately.
	if !pending.Equal(borrowed) {
		t.Errorf("pending = %v, want %v", pending, borrowed)
	}
	if !mask.Equal(cpuset.Range(0, 7).AndNot(borrowed)) {
		t.Errorf("mask after reclaim = %v", mask)
	}

	// Borrower polls, gives CPUs back; owner polls again via reclaim.
	got, changed := m2.Poll()
	if !changed {
		t.Fatal("borrower should see a reclaim request")
	}
	if !got.Equal(cpuset.Range(8, 15)) {
		t.Errorf("borrower mask after return = %v", got)
	}
	mask, pending = m1.ExitBlocking()
	if !mask.Equal(cpuset.Range(0, 7)) || !pending.IsEmpty() {
		t.Errorf("owner mask = %v pending = %v", mask, pending)
	}
}

func TestBorrowCapAndBlockedBorrow(t *testing.T) {
	_, m1, m2 := setup(t)
	m1.EnterBlocking()
	m2.SetMaxBorrow(3)
	if got := m2.Borrow(); got.Count() != 3 {
		t.Fatalf("capped borrow = %v", got)
	}
	// Second borrow hits the cap.
	if got := m2.Borrow(); !got.IsEmpty() {
		t.Errorf("borrow past cap = %v", got)
	}
	// A blocked process never borrows.
	m2.EnterBlocking()
	if got := m2.Borrow(); !got.IsEmpty() {
		t.Errorf("borrow while blocked = %v", got)
	}
}

func TestEnterBlockingReturnsBorrowed(t *testing.T) {
	_, m1, m2 := setup(t)
	m1.EnterBlocking()
	m2.Borrow()
	// When the borrower itself blocks, borrowed CPUs return to pool
	// and only one own CPU is kept.
	kept := m2.EnterBlocking()
	if kept.Count() != 1 || !kept.IsSubsetOf(cpuset.Range(8, 15)) {
		t.Errorf("kept = %v", kept)
	}
}

func TestVoluntaryLend(t *testing.T) {
	seg, m1, _ := setup(t)
	m1.Lend(cpuset.Range(4, 7))
	if !seg.IdleMask().Equal(cpuset.Range(4, 7)) {
		t.Errorf("idle after lend = %v", seg.IdleMask())
	}
	// Lending CPUs you do not own is a no-op.
	m1.Lend(cpuset.Range(8, 11))
	if !seg.IdleMask().Equal(cpuset.Range(4, 7)) {
		t.Errorf("idle after bogus lend = %v", seg.IdleMask())
	}
}

func TestSetOwnedAfterDROMChange(t *testing.T) {
	seg, m1, _ := setup(t)
	// DROM shrinks process 1 from 0-7 to 0-3.
	if code := m1.SetOwned(cpuset.Range(0, 3)); code.IsError() {
		t.Fatal(code)
	}
	if !seg.OwnerMask(1).Equal(cpuset.Range(0, 3)) {
		t.Errorf("owner mask = %v", seg.OwnerMask(1))
	}
	// CPUs 4-7 are now free for anyone.
	if !seg.IdleMask().Equal(cpuset.Range(4, 7)) {
		t.Errorf("idle = %v", seg.IdleMask())
	}
	// Growing back claims them again.
	if code := m1.SetOwned(cpuset.Range(0, 7)); code.IsError() {
		t.Fatal(code)
	}
	if !seg.OwnerMask(1).Equal(cpuset.Range(0, 7)) {
		t.Errorf("owner mask after grow = %v", seg.OwnerMask(1))
	}
}

func TestFinalizeReleasesEverything(t *testing.T) {
	seg, m1, m2 := setup(t)
	m1.EnterBlocking()
	m2.Borrow()
	m2.Finalize()
	if !seg.OwnerMask(2).IsEmpty() {
		t.Errorf("owner mask after finalize = %v", seg.OwnerMask(2))
	}
	if !seg.GuestMask(2).IsEmpty() {
		t.Errorf("guest mask after finalize = %v", seg.GuestMask(2))
	}
}
