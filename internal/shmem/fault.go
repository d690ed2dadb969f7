package shmem

// Fault-injecting backend: a seeded wrapper around any inner backend
// that makes the registry unreliable in controlled, reproducible ways,
// opening the registry-failure scenario class for the controller and
// schedd (can the scheduler survive a flaky shared-memory segment with
// degraded metrics rather than a panic?).
//
// Fault model — deliberately asymmetric, mirroring where a real DLB
// deployment hurts:
//
//   - the administrative staging surface (RegisterPreInit, SetFuture,
//     SetStolen, SetResizeRequest — the controller's writes) can fail
//     loudly (derr.ErrNoShmem, a partitioned segment) or silently
//     drop (reported Success, nothing written — a torn update);
//   - the administrative read surface (Lookup, StatsOf) can fail with
//     ErrNoShmem, and the table/mask reads can be served from a stale
//     snapshot captured before the most recent write;
//   - the application side (Register, ApplyFuture, the LeWI calls) is
//     never faulted: the processes on the node keep running; it is the
//     coordination layer that degrades.
//
// Every faultable call draws exactly one value from the seeded stream
// (even when all rates are zero), so a run's fault pattern is a pure
// function of the seed and the operation sequence. A fork continues the
// parent's stream, without consuming it, and its counts: both lineages
// see the same faults, as after any Fork — a what-if from a flaky live
// lineage sees the ones the live lineage will. The stale-read snapshot
// is not carried over; the silent-fault part of ROADMAP's "faults the
// controller cannot hear" item owns the silent fault classes.

import (
	"fmt"
	"sync"

	"repro/internal/cpuset"
	"repro/internal/derr"
	"repro/internal/sim"
)

// FaultConfig parameterizes a FaultBackend. Rates are probabilities in
// [0, 1], drawn independently per call in the order listed here.
//
//simvet:testonly fault-injection fixture of the registry-failure tests
type FaultConfig struct {
	// Seed makes the fault pattern reproducible.
	Seed int64
	// WriteFailRate: admin staging writes return ErrNoShmem.
	WriteFailRate float64
	// WriteDropRate: admin staging writes report Success but write
	// nothing (checked only when the write did not already fail).
	WriteDropRate float64
	// ReadFailRate: Lookup/StatsOf return ErrNoShmem / not-found.
	ReadFailRate float64
	// StaleReadRate: table and mask reads are served from a snapshot
	// captured before the most recent successful admin write.
	StaleReadRate float64
}

// FaultCounts reports how many faults a backend has injected, for
// assertions and degraded-metrics plumbing.
//
//simvet:testonly fault-injection fixture of the registry-failure tests
type FaultCounts struct {
	WriteFails int64
	WriteDrops int64
	ReadFails  int64
	StaleReads int64
}

// FaultBackend wraps an inner backend and injects seeded faults into
// the administrative call surface of every segment opened through it.
//
//simvet:testonly fault-injection fixture of the registry-failure tests
type FaultBackend struct {
	inner Backend
	cfg   FaultConfig

	mu     sync.Mutex
	rng    *sim.Rand
	counts FaultCounts
	segs   map[string]*FaultSegment
}

// NewFaultBackend wraps inner with the given fault configuration.
//
//simvet:testonly fault-injection fixture of the registry-failure tests
func NewFaultBackend(inner Backend, cfg FaultConfig) *FaultBackend {
	return &FaultBackend{
		inner: inner,
		cfg:   cfg,
		rng:   sim.NewRand(cfg.Seed),
		segs:  make(map[string]*FaultSegment),
	}
}

// Kind identifies the backend, including what it wraps.
func (b *FaultBackend) Kind() string { return "fault+" + b.inner.Kind() }

// Config returns the fault configuration.
func (b *FaultBackend) Config() FaultConfig { return b.cfg }

// Counts returns the faults injected so far.
func (b *FaultBackend) Counts() FaultCounts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts
}

// draw consumes one stream value and reports whether an event with
// probability rate fires. Always consumes, so the stream position is
// independent of the configured rates.
func (b *FaultBackend) draw(rate float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rng.Float64() < rate
}

// Open wraps the inner segment in the fault injector. Wrappers are
// cached so the stale-read snapshot survives repeated opens.
func (b *FaultBackend) Open(name string, nodeCPUs cpuset.CPUSet, maxProcs int) (Segment, error) {
	inner, err := b.inner.Open(name, nodeCPUs, maxProcs)
	if err != nil {
		return nil, err
	}
	return b.wrap(name, inner), nil
}

// Get returns the wrapped named segment or nil.
func (b *FaultBackend) Get(name string) Segment {
	inner := b.inner.Get(name)
	if inner == nil {
		return nil
	}
	return b.wrap(name, inner)
}

func (b *FaultBackend) wrap(name string, inner Segment) *FaultSegment {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.segs[name]; ok && s.Segment == inner {
		return s
	}
	s := &FaultSegment{Segment: inner, b: b}
	b.segs[name] = s
	return s
}

// Delete removes the named segment from the inner backend.
func (b *FaultBackend) Delete(name string) {
	b.mu.Lock()
	delete(b.segs, name)
	b.mu.Unlock()
	b.inner.Delete(name)
}

// Names returns the inner backend's segment names.
func (b *FaultBackend) Names() []string { return b.inner.Names() }

// AllocPID delegates to the inner backend.
func (b *FaultBackend) AllocPID() PID { return b.inner.AllocPID() }

// Close closes the inner backend.
func (b *FaultBackend) Close() error { return b.inner.Close() }

// fork forwards to the inner backend's fork; the child continues the
// parent's fault stream and counts (see the file comment).
func (b *FaultBackend) fork() Backend {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &FaultBackend{
		inner:  b.inner.fork(),
		cfg:    b.cfg,
		rng:    b.rng.Fork(),
		counts: b.counts,
		segs:   make(map[string]*FaultSegment),
	}
}

// FaultSegment injects faults into the administrative surface of one
// segment. Only the faultable calls are written out below; everything
// else is promoted from the embedded inner Segment and so runs
// unfaulted: the application side (Register, Unregister, ApplyFuture,
// CreditPolls, the LeWI calls) keeps working, and the change detector
// (WaitClean, Watch) must stay truthful or waiters would spin forever.
// fork is promoted too: a what-if fork gets a private, fault-free copy
// of the state (the fault stream belongs to the backend, and
// FaultBackend.fork continues it there).
//
//simvet:testonly fault-injection fixture of the registry-failure tests
type FaultSegment struct {
	Segment
	b *FaultBackend

	mu sync.Mutex
	// snap holds a private copy of the segment captured just before
	// the most recent successful admin write; stale reads serve from
	// it. Nil until the first write goes through.
	snap Segment
}

// Inner exposes the wrapped segment (tests, diagnostics).
func (s *FaultSegment) Inner() Segment { return s.Segment }

// failWrite draws the write-fault decision for one staging call:
// fail (ErrNoShmem), drop (pretend Success), or pass. On pass it
// refreshes the stale-read snapshot with the pre-write state.
func (s *FaultSegment) failWrite() (code derr.Code, done bool) {
	if s.b.draw(s.b.cfg.WriteFailRate) {
		s.b.mu.Lock()
		s.b.counts.WriteFails++
		s.b.mu.Unlock()
		return derr.ErrNoShmem, true
	}
	if s.b.draw(s.b.cfg.WriteDropRate) {
		s.b.mu.Lock()
		s.b.counts.WriteDrops++
		s.b.mu.Unlock()
		return derr.Success, true
	}
	s.mu.Lock()
	s.snap = s.Segment.fork()
	s.mu.Unlock()
	return derr.Success, false
}

// failRead draws the read-fault decision for Lookup/StatsOf.
func (s *FaultSegment) failRead() bool {
	if s.b.draw(s.b.cfg.ReadFailRate) {
		s.b.mu.Lock()
		s.b.counts.ReadFails++
		s.b.mu.Unlock()
		return true
	}
	return false
}

// staleSource returns the snapshot to serve a table read from, or the
// live segment when no stale fault fires (or no snapshot exists yet).
func (s *FaultSegment) staleSource() Segment {
	if s.b.draw(s.b.cfg.StaleReadRate) {
		s.mu.Lock()
		snap := s.snap
		s.mu.Unlock()
		if snap != nil {
			s.b.mu.Lock()
			s.b.counts.StaleReads++
			s.b.mu.Unlock()
			return snap
		}
	}
	return s.Segment
}

// RegisterPreInit is an admin staging write; faultable.
func (s *FaultSegment) RegisterPreInit(pid PID, mask cpuset.CPUSet, stolen []Theft) derr.Code {
	if code, done := s.failWrite(); done {
		return code
	}
	return s.Segment.RegisterPreInit(pid, mask, stolen)
}

// Lookup is an admin read; faultable with ErrNoShmem.
func (s *FaultSegment) Lookup(pid PID) (ProcEntry, derr.Code) {
	if s.failRead() {
		return ProcEntry{}, derr.ErrNoShmem
	}
	return s.staleSource().Lookup(pid)
}

// LookupInto is Lookup into a caller-owned entry; faultable with
// ErrNoShmem (*dst blank).
func (s *FaultSegment) LookupInto(pid PID, dst *ProcEntry) derr.Code {
	if s.failRead() {
		*dst = ProcEntry{Stolen: dst.Stolen[:0]}
		return derr.ErrNoShmem
	}
	return s.staleSource().LookupInto(pid, dst)
}

// PIDList may serve a stale snapshot.
func (s *FaultSegment) PIDList() []PID { return s.staleSource().PIDList() }

// NumProcs may serve a stale snapshot.
func (s *FaultSegment) NumProcs() int { return s.staleSource().NumProcs() }

// FreeMask may serve a stale snapshot.
func (s *FaultSegment) FreeMask() cpuset.CPUSet { return s.staleSource().FreeMask() }

// EffectiveUsedMask may serve a stale snapshot — this is the read the
// controller's effective-free cache rebuilds from, so staleness here
// exercises the cache-invalidation contract.
func (s *FaultSegment) EffectiveUsedMask() cpuset.CPUSet { return s.staleSource().EffectiveUsedMask() }

// ResolveThefts is an admin staging write when steal is set; the
// read-only planning call passes through.
func (s *FaultSegment) ResolveThefts(dst []Theft, pid PID, mask cpuset.CPUSet, steal bool) ([]Theft, derr.Code) {
	if steal {
		if code, done := s.failWrite(); done {
			return dst[:0], code
		}
	}
	return s.Segment.ResolveThefts(dst, pid, mask, steal)
}

// SetFuture is an admin staging write; faultable.
func (s *FaultSegment) SetFuture(pid PID, mask cpuset.CPUSet) derr.Code {
	if code, done := s.failWrite(); done {
		return code
	}
	return s.Segment.SetFuture(pid, mask)
}

// SetResizeRequest is an admin staging write; faultable.
func (s *FaultSegment) SetResizeRequest(pid PID, n int) derr.Code {
	if code, done := s.failWrite(); done {
		return code
	}
	return s.Segment.SetResizeRequest(pid, n)
}

// SetStolen is an admin staging write; faultable.
func (s *FaultSegment) SetStolen(pid PID, stolen []Theft) derr.Code {
	if code, done := s.failWrite(); done {
		return code
	}
	return s.Segment.SetStolen(pid, stolen)
}

// StatsOf is an admin read; faultable as not-found.
func (s *FaultSegment) StatsOf(pid PID) (Stats, bool) {
	if s.failRead() {
		return Stats{}, false
	}
	return s.staleSource().StatsOf(pid)
}

// Snapshot may serve a stale snapshot.
func (s *FaultSegment) Snapshot() []ProcEntry { return s.staleSource().Snapshot() }

var _ Backend = (*FaultBackend)(nil)
var _ Segment = (*FaultSegment)(nil)
var _ fmt.Stringer = (*Registry)(nil)
