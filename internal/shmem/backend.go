package shmem

// Backend abstraction: the simulator historically had exactly one
// shared-memory implementation — the in-process MemSegment map — which
// is a faithful model of DLB's /dev/shm segments but not the real
// mechanism. The Segment and Backend interfaces extracted here let the
// same DROM/LeWI protocol code run over three implementations:
//
//   - MemBackend (default): the original in-process tables. The
//     interface holds a pointer, so storing one allocates nothing; a
//     call through it is an indirect call to the same mutex-guarded
//     method (one the compiler devirtualizes only where it can see the
//     concrete type).
//   - FileBackend: a versioned binary segment file per node,
//     flock-protected, so two real OS processes (slurmsim and
//     dromctl -backend file:...) exchange DROM calls like the C
//     library the paper models (file.go, seglayout.go).
//   - FaultBackend: a seeded fault injector wrapping any inner
//     backend — dropped writes, stale reads, partitions — opening the
//     registry-failure scenario class for the controller (fault.go).
//
// Both interfaces are sealed by the unexported fork method: backends
// live in this package, where the conformance suite
// (conformance_test.go) holds every implementation to the MemSegment
// reference semantics.

import (
	"fmt"

	"repro/internal/cpuset"
	"repro/internal/derr"
)

// Segment is one node's shared memory as the DROM/LeWI protocol sees
// it: the procinfo table (Register/SetFuture/ApplyFuture/...), the
// cpuinfo table (Claim/Lend/Borrow/Reclaim/...) and the notification
// surface. All implementations are safe for concurrent use and bump
// the segment's generation counter on every mutation.
type Segment interface {
	// Identity and shape.
	Name() string
	NodeCPUs() cpuset.CPUSet

	// Procinfo table (DROM).
	Register(pid PID, mask cpuset.CPUSet) derr.Code
	RegisterPreInit(pid PID, mask cpuset.CPUSet, stolen []Theft) derr.Code
	Unregister(pid PID) derr.Code
	Lookup(pid PID) (ProcEntry, derr.Code)
	LookupInto(pid PID, dst *ProcEntry) derr.Code
	PIDList() []PID
	NumProcs() int
	FreeMask() cpuset.CPUSet
	EffectiveUsedMask() cpuset.CPUSet
	ResolveThefts(dst []Theft, pid PID, mask cpuset.CPUSet, steal bool) ([]Theft, derr.Code)
	SetFuture(pid PID, mask cpuset.CPUSet) derr.Code
	ApplyFuture(pid PID) (cpuset.CPUSet, derr.Code)
	CreditPolls(pid PID, n int64)
	SetResizeRequest(pid PID, n int) derr.Code
	SetStolen(pid PID, stolen []Theft) derr.Code
	StatsOf(pid PID) (Stats, bool)
	Snapshot() []ProcEntry

	// Cpuinfo table (LeWI).
	ClaimCPUs(pid PID, mask cpuset.CPUSet) derr.Code
	ReleaseCPUs(pid PID, mask cpuset.CPUSet) derr.Code
	LendCPUs(pid PID, mask cpuset.CPUSet) derr.Code
	BorrowCPUs(pid PID, max int) cpuset.CPUSet
	ReclaimCPUs(pid PID, mask cpuset.CPUSet) (recovered, pending cpuset.CPUSet)
	PollReclaim(pid PID) cpuset.CPUSet
	GuestMask(pid PID) cpuset.CPUSet

	// Synchronization and notification.
	WaitClean(pid PID, cancel <-chan struct{}) derr.Code
	Watch(pid PID) <-chan struct{}
	Unwatch(pid PID, ch <-chan struct{})

	// fork seals the interface to this package and implements the
	// per-backend Fork semantics (fork.go).
	fork() Segment
}

// Backend is a shared-memory namespace implementation: the /dev/shm
// analogue that maps names to segments and allocates virtual PIDs.
// Sealed to this package via fork; consumers hold a *Registry.
type Backend interface {
	// Kind identifies the backend ("mem", "file", "fault+<inner>") in
	// diagnostics and CLI surfaces.
	Kind() string
	// Open returns the named segment, creating it with the given node
	// CPU set and capacity (maxProcs <= 0 selects DefaultMaxProcs) if
	// absent. Reopening ignores nodeCPUs/maxProcs, as a second
	// shm_open would. Only I/O-backed backends can fail.
	Open(name string, nodeCPUs cpuset.CPUSet, maxProcs int) (Segment, error)
	// Get returns the named segment or nil if it does not exist.
	Get(name string) Segment
	// Delete removes the named segment (shm_unlink).
	Delete(name string)
	// Names returns all segment names in sorted order.
	Names() []string
	// AllocPID returns a fresh virtual PID, unique within the
	// namespace (for the file backend: across every attached process).
	AllocPID() PID
	// Close releases backend resources (pollers, file handles).
	Close() error

	// fork seals the interface and implements per-backend Fork.
	fork() Backend
}

// Registry is the consumer-facing handle over a Backend: it adds the
// historical constructors, MustOpen, Fork and String to the backend's
// own methods. The zero value is not usable; call NewRegistry or
// NewRegistryWith.
type Registry struct {
	Backend
}

// NewRegistry returns a registry over the default in-memory backend.
func NewRegistry() *Registry {
	return &Registry{NewMemBackend()}
}

// NewRegistryWith returns a registry over an explicit backend.
func NewRegistryWith(b Backend) *Registry {
	return &Registry{b}
}

// MustOpen is Open for callers on backends that cannot fail (the
// in-memory default); it panics on error.
func (r *Registry) MustOpen(name string, nodeCPUs cpuset.CPUSet, maxProcs int) Segment {
	s, err := r.Open(name, nodeCPUs, maxProcs)
	if err != nil {
		panic(fmt.Sprintf("shmem: MustOpen(%s) on %s backend: %v", name, r.Kind(), err))
	}
	return s
}

func (r *Registry) String() string {
	return fmt.Sprintf("shmem.Registry(%s, %d segments)", r.Kind(), len(r.Names()))
}
