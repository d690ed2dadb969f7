// Package lewi implements the Lend-When-Idle module of DLB (§3.1).
// LeWI is the original DLB policy: when a process blocks (typically in
// an MPI call) it lends its CPUs to the node pool; other processes of
// the node borrow the idle CPUs to raise their parallelism, and return
// them when the owner reclaims.
//
// LeWI state lives in the shared cpuinfo table (internal/shmem); this
// package provides the per-process policy logic on top of it.
package lewi

import (
	"repro/internal/cpuset"
	"repro/internal/derr"
	"repro/internal/shmem"
)

// Policy selects how many CPUs a process lends when it blocks.
type Policy int

const (
	// LendAllButOne keeps one CPU for the blocked thread itself (the
	// DLB default: MPI calls may poll internally). Zero value.
	LendAllButOne Policy = iota
	// LendAll lends every owned CPU on a blocking call. Appropriate
	// when the blocking call does not spin.
	LendAll
)

// Module is the per-process LeWI state.
type Module struct {
	seg    shmem.Segment
	pid    shmem.PID
	policy Policy
	// ownedMask is the process's own allocation, the set reclaimed on
	// ExitBlocking.
	ownedMask cpuset.CPUSet
	// maxBorrow caps how many extra CPUs the process will borrow at
	// once; <=0 means unlimited.
	maxBorrow int
	blocked   bool
}

// New creates the LeWI module for a process and claims ownership of
// its CPUs in the cpuinfo table.
func New(seg shmem.Segment, pid shmem.PID, owned cpuset.CPUSet, policy Policy) (*Module, derr.Code) {
	if code := seg.ClaimCPUs(pid, owned); code.IsError() {
		return nil, code
	}
	return &Module{
		seg:       seg,
		pid:       pid,
		policy:    policy,
		ownedMask: owned,
		maxBorrow: -1,
	}, derr.Success
}

// SetMaxBorrow caps the number of borrowed CPUs (<=0 = unlimited).
func (m *Module) SetMaxBorrow(n int) { m.maxBorrow = n }

// SetOwned updates the owned set after a DROM mask change, releasing
// ownership of removed CPUs and claiming added ones.
func (m *Module) SetOwned(owned cpuset.CPUSet) derr.Code {
	removed := m.ownedMask.AndNot(owned)
	added := owned.AndNot(m.ownedMask)
	if !removed.IsEmpty() {
		if code := m.seg.ReleaseCPUs(m.pid, removed); code.IsError() {
			return code
		}
	}
	if !added.IsEmpty() {
		if code := m.seg.ClaimCPUs(m.pid, added); code.IsError() {
			return code
		}
	}
	m.ownedMask = owned
	return derr.Success
}

// EnterBlocking is called when the process enters a blocking call
// (e.g. via the PMPI interception). It lends CPUs per the policy and
// returns the mask the process keeps running on.
func (m *Module) EnterBlocking() cpuset.CPUSet {
	m.blocked = true
	lend := m.ownedMask
	if m.policy == LendAllButOne && lend.Count() > 1 {
		keep := lend.TakeLowest(1)
		lend = lend.AndNot(keep)
	}
	// Also return anything we had borrowed: a blocked process should
	// hold nothing extra.
	borrowed := m.seg.GuestMask(m.pid).AndNot(m.ownedMask)
	m.seg.LendCPUs(m.pid, lend.Or(borrowed))
	return m.seg.GuestMask(m.pid)
}

// ExitBlocking is called when the blocking call returns. The process
// reclaims its owned CPUs; CPUs currently borrowed by others are
// flagged and come back when the borrowers poll.
func (m *Module) ExitBlocking() (got cpuset.CPUSet, pending cpuset.CPUSet) {
	m.blocked = false
	recovered, pend := m.seg.ReclaimCPUs(m.pid, m.ownedMask)
	_ = recovered
	return m.seg.GuestMask(m.pid), pend
}

// Borrow acquires idle CPUs from the pool, honoring the borrow cap,
// and returns the mask acquired in this call.
func (m *Module) Borrow() cpuset.CPUSet {
	if m.blocked {
		return cpuset.CPUSet{}
	}
	max := -1
	if m.maxBorrow > 0 {
		already := m.seg.GuestMask(m.pid).AndNot(m.ownedMask).Count()
		max = m.maxBorrow - already
		if max <= 0 {
			return cpuset.CPUSet{}
		}
	}
	return m.seg.BorrowCPUs(m.pid, max)
}

// Poll checks for reclaim requests on borrowed CPUs and returns them.
// It reports the process's resulting guest mask and whether anything
// changed. Runtimes call it at task/parallel-region boundaries.
func (m *Module) Poll() (mask cpuset.CPUSet, changed bool) {
	giveBack := m.seg.PollReclaim(m.pid)
	if !giveBack.IsEmpty() {
		m.seg.LendCPUs(m.pid, giveBack)
		changed = true
	}
	return m.seg.GuestMask(m.pid), changed
}

// Lend voluntarily lends specific owned CPUs outside a blocking call.
func (m *Module) Lend(mask cpuset.CPUSet) {
	m.seg.LendCPUs(m.pid, mask.And(m.ownedMask))
}

// Mask returns the process's current guest mask (owned + borrowed,
// minus lent).
func (m *Module) Mask() cpuset.CPUSet { return m.seg.GuestMask(m.pid) }

// Finalize releases everything: borrowed CPUs are returned and owned
// CPUs released from the cpuinfo table.
func (m *Module) Finalize() {
	borrowed := m.seg.GuestMask(m.pid).AndNot(m.ownedMask)
	if !borrowed.IsEmpty() {
		m.seg.LendCPUs(m.pid, borrowed)
	}
	m.seg.ReleaseCPUs(m.pid, m.ownedMask)
}
