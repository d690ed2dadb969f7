package shmem

// Fork support: a registry (and every segment under it) can be deep-
// copied so a speculative simulation lineage mutates its own shared-
// memory state. Fork semantics are per backend:
//
//   - MemBackend deep-clones every segment — both lineages stage
//     futures, steal CPUs and unregister independently;
//   - FileBackend forks to a PRIVATE in-memory copy (a MemBackend):
//     a what-if lineage must never write through to the shared
//     segment files other OS processes are attached to;
//   - FaultBackend forks its inner backend and continues the fault
//     stream at the fork point, so the child injects the faults the
//     parent will while the parent's own stream is left unperturbed.
//
// Common ownership rules:
//
//   - the procinfo slots, each with its own copy of its theft list,
//     and the per-CPU ownership table are cloned (the cpuinfo table is
//     node-sized, so a 16-CPU node copies 16 slots); the fork's
//     procinfo array is fresh, so no spare slot of the parent, nor
//     the theft array it keeps, is reachable from both lineages;
//   - watcher channels and the condition variable are NOT carried
//     over: a fork starts with no synchronous waiters (the async DROM
//     protocol the simulations use never blocks on them);
//   - the PID allocator's counter is copied, so both lineages assign
//     identical PIDs to identical logical launches after the fork —
//     a precondition for byte-identical decision traces.

import "sync/atomic"

// forkMem returns a deep copy of the segment with no watchers.
func (s *MemSegment) forkMem() *MemSegment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &MemSegment{
		name:       s.name,
		nodeCPUs:   s.nodeCPUs,
		maxProcs:   s.maxProcs,
		procs:      cloneProcs(s.procs),
		cpus:       append([]cpuState(nil), s.cpus...),
		live:       s.live,
		generation: s.generation,
	}
}

// fork implements the sealed Segment interface method.
func (s *MemSegment) fork() Segment { return s.forkMem() }

// fork returns a deep copy of the backend: every segment cloned, the
// PID allocator's position preserved. The fork shares nothing mutable
// with the original.
func (r *MemBackend) fork() Backend {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := &MemBackend{
		segments: make(map[string]*MemSegment, len(r.segments)),
		nextPID:  atomic.LoadInt64(&r.nextPID),
	}
	for name, s := range r.segments { //simvet:ordered deep copy into a fresh map; no order-dependent output
		f.segments[name] = s.forkMem()
	}
	return f
}

// Fork returns a deep private copy of the registry under its
// backend's fork semantics (see the package comment above). The fork
// shares no mutable state with the original.
func (r *Registry) Fork() *Registry {
	return &Registry{r.fork()}
}
