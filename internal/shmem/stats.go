package shmem

// Stats are per-process counters accumulated in shared memory. They
// implement the paper's first future-work direction: "the collection
// of useful data from applications at run time. The collected
// information can be consulted by an external [entity] to get info
// about applications performance and send them to the job scheduler to
// be taken into account for further scheduling decisions."
type Stats struct {
	// Polls counts DROM polls (DLB_PollDROM calls).
	Polls int64
	// MaskChanges counts applied DROM mask updates.
	MaskChanges int64
	// CPUsGained/CPUsLost accumulate mask-size deltas across changes.
	CPUsGained int64
	CPUsLost   int64
	// Lends/Borrows/Reclaims count LeWI operations by this process.
	Lends    int64
	Borrows  int64
	Reclaims int64
	// CPUSecondsLent integrates lent CPUs over time is not meaningful
	// without a clock; instead CPUsLent accumulates lent-CPU counts
	// per Lend call.
	CPUsLent     int64
	CPUsBorrowed int64
}

// statsOf returns the live stats struct for pid, creating nothing.
// Caller holds s.mu.
func (s *MemSegment) statsOf(pid PID) *Stats {
	if e, ok := s.procs[pid]; ok {
		return &e.Stats
	}
	return nil
}

// StatsOf returns a copy of the process's counters.
func (s *MemSegment) StatsOf(pid PID) (Stats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.procs[pid]; ok {
		return e.Stats, true
	}
	return Stats{}, false
}

// CreditPolls adds n to pid's poll counter: the record of n polls that
// found nothing pending and that the caller did not issue one by one
// (a simulated application whose steady iterations the engine advanced
// without executing them). Like a clean poll it is not a mutation — the
// generation counter stays — and an unknown pid is a no-op.
func (s *MemSegment) CreditPolls(pid PID, n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.statsOf(pid); st != nil {
		st.Polls += n
	}
}
