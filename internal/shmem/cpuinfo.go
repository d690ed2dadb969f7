package shmem

import (
	"repro/internal/cpuset"
	"repro/internal/derr"
)

// cpuState is one slot of the cpuinfo table, used by the LeWI module.
// A CPU has an owner (the process whose allocation it belongs to) and a
// guest (the process currently entitled to run on it). Owner and guest
// coincide unless the owner lent the CPU and someone borrowed it.
//
// The table has a slot for every CPU up to the node's highest; a CPU
// outside the node has no state. ClaimCPUs, ReleaseCPUs, LendCPUs and
// ReclaimCPUs act on the part of their mask inside the node and ignore
// the rest, as BorrowCPUs and IdleMask only ever walk the node, so no
// slot outside the node — a hole in a non-contiguous node mask — is
// ever non-zero, and none past the table is ever indexed.
//
// A slot no process has touched is zero, and a replay that stages
// masks through the procinfo table never touches one. So the segment
// keeps the set of slots that may be non-zero (MemSegment.live): every
// method that can make a slot non-zero sets its bit, Unregister and
// ReleaseCPUs clear the bits of the slots they zero, and the scans for
// one process's slots walk that set instead of the whole table.
type cpuState struct {
	owner PID // 0 = unowned
	guest PID // 0 = idle (lent or unowned and unclaimed)
	// lent is true while the owner has handed the CPU to the pool.
	lent bool
	// reclaimPending is true when the owner wants a borrowed CPU back;
	// the borrower must return it at its next poll.
	reclaimPending bool
}

// ClaimCPUs records pid as owner and guest of every CPU in mask.
// It fails with ErrPerm if any CPU is already owned by another process.
func (s *MemSegment) ClaimCPUs(pid PID, mask cpuset.CPUSet) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	mask = mask.And(s.nodeCPUs)
	var bad bool
	mask.ForEach(func(c int) bool {
		if s.cpus[c].owner != 0 && s.cpus[c].owner != pid {
			bad = true
			return false
		}
		return true
	})
	if bad {
		return derr.ErrPerm
	}
	mask.ForEach(func(c int) bool {
		s.cpus[c] = cpuState{owner: pid, guest: pid}
		return true
	})
	s.live = s.live.Or(mask)
	s.bump()
	return derr.Success
}

// ReleaseCPUs clears ownership of every CPU in mask owned by pid.
func (s *MemSegment) ReleaseCPUs(pid PID, mask cpuset.CPUSet) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	mask = mask.And(s.nodeCPUs)
	mask.ForEach(func(c int) bool {
		if s.cpus[c].owner == pid {
			s.cpus[c] = cpuState{}
			s.live.Clear(c)
		}
		return true
	})
	s.bump()
	return derr.Success
}

// LendCPUs marks the CPUs in mask (owned by pid) as lent: the owner
// stops running on them and they become available for borrowing.
// CPUs in mask not owned by pid are ignored if currently guested by
// pid as a borrower — lending a borrowed CPU returns it instead.
func (s *MemSegment) LendCPUs(pid PID, mask cpuset.CPUSet) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.statsOf(pid); st != nil && !mask.IsEmpty() {
		st.Lends++
		st.CPUsLent += int64(mask.Count())
	}
	mask.And(s.nodeCPUs).ForEach(func(c int) bool {
		st := &s.cpus[c]
		switch {
		case st.owner == pid:
			st.lent = true
			if st.guest == pid {
				st.guest = 0
			}
		case st.guest == pid:
			// Returning a borrowed CPU. If the owner reclaimed it, it
			// goes straight back; otherwise it stays in the pool.
			st.guest = 0
			if st.reclaimPending {
				st.reclaimPending = false
				st.lent = false
				if st.owner != 0 {
					st.guest = st.owner
				}
			} else if !st.lent && st.owner != 0 {
				st.guest = st.owner
			}
		}
		return true
	})
	s.bump()
	return derr.Success
}

// BorrowCPUs assigns up to max lent-or-unowned idle CPUs to pid as
// guest and returns the acquired mask. max < 0 means "as many as
// available". Prefers CPUs whose owner is 0 (free) first, then lent
// CPUs, in ascending CPU order within the node set.
func (s *MemSegment) BorrowCPUs(pid PID, max int) cpuset.CPUSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var got cpuset.CPUSet
	take := func(wantFree bool) {
		s.nodeCPUs.ForEach(func(c int) bool {
			if max >= 0 && got.Count() >= max {
				return false
			}
			st := &s.cpus[c]
			if st.guest != 0 {
				return true
			}
			isFree := st.owner == 0
			if isFree != wantFree {
				return true
			}
			if !isFree && !st.lent {
				return true
			}
			st.guest = pid
			st.reclaimPending = false
			got.Set(c)
			return true
		})
	}
	take(true)
	take(false)
	s.live = s.live.Or(got)
	if !got.IsEmpty() {
		if st := s.statsOf(pid); st != nil {
			st.Borrows++
			st.CPUsBorrowed += int64(got.Count())
		}
		s.bump()
	}
	return got
}

// ReclaimCPUs is called by an owner that wants its lent CPUs back.
// Idle lent CPUs are returned immediately (guest reset to owner, lent
// cleared) and included in the returned "recovered" mask. CPUs
// currently guested by a borrower are flagged reclaimPending and
// reported in the "pending" mask.
func (s *MemSegment) ReclaimCPUs(pid PID, mask cpuset.CPUSet) (recovered, pending cpuset.CPUSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mask.And(s.nodeCPUs).ForEach(func(c int) bool {
		st := &s.cpus[c]
		if st.owner != pid || !st.lent {
			return true
		}
		if st.guest == 0 {
			st.lent = false
			st.guest = pid
			recovered.Set(c)
		} else if st.guest != pid {
			st.reclaimPending = true
			pending.Set(c)
		}
		return true
	})
	if !recovered.IsEmpty() || !pending.IsEmpty() {
		if st := s.statsOf(pid); st != nil {
			st.Reclaims++
		}
		s.bump()
	}
	return recovered, pending
}

// PollReclaim returns the CPUs guested by pid whose owner wants them
// back. The borrower is expected to call LendCPUs (return) on them.
func (s *MemSegment) PollReclaim(pid PID) cpuset.CPUSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m cpuset.CPUSet
	for c := s.live.First(); c >= 0; c = s.live.Next(c + 1) {
		st := &s.cpus[c]
		if st.guest == pid && st.owner != pid && st.reclaimPending {
			m.Set(c)
		}
	}
	return m
}

// GuestMask returns all CPUs currently guested by pid (owned + borrowed).
// pid is a process, so positive: IdleMask lists the CPUs with no guest.
func (s *MemSegment) GuestMask(pid PID) cpuset.CPUSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m cpuset.CPUSet
	for c := s.live.First(); c >= 0; c = s.live.Next(c + 1) {
		if s.cpus[c].guest == pid {
			m.Set(c)
		}
	}
	return m
}

// OwnerMask returns all CPUs owned by pid, a process (so positive).
//
//simvet:testonly tests read the cpuinfo table through it
func (s *MemSegment) OwnerMask(pid PID) cpuset.CPUSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m cpuset.CPUSet
	for c := s.live.First(); c >= 0; c = s.live.Next(c + 1) {
		if s.cpus[c].owner == pid {
			m.Set(c)
		}
	}
	return m
}

// IdleMask returns CPUs with no guest: lendable capacity on the node.
//
//simvet:testonly tests read the cpuinfo table through it
func (s *MemSegment) IdleMask() cpuset.CPUSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m cpuset.CPUSet
	s.nodeCPUs.ForEach(func(c int) bool {
		if s.cpus[c].guest == 0 {
			m.Set(c)
		}
		return true
	})
	return m
}
