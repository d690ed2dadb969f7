package shmem

import (
	"fmt"

	"repro/internal/cpuset"
)

// tables returns the in-process tables behind seg, for assertions: the
// segment itself, or a decoded copy of a file segment's current state.
func tables(seg Segment) *MemSegment {
	switch s := seg.(type) {
	case *MemSegment:
		return s
	case *FileSegment:
		var m *MemSegment
		if !s.view(func(v *MemSegment) { m = v }) {
			panic("shmem: segment file unreadable")
		}
		return m
	case *FaultSegment:
		return tables(s.Segment)
	}
	panic(fmt.Sprintf("shmem: no tables behind %T", seg))
}

// watcherCount returns the number of watcher channels pid holds on seg
// (watchers live in the process, not in a segment file).
func watcherCount(seg Segment, pid PID) int {
	switch s := seg.(type) {
	case *FileSegment:
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.watchers[pid])
	case *FaultSegment:
		return watcherCount(s.Segment, pid)
	}
	return tables(seg).WatcherCount(pid)
}

// LentMask returns all CPUs currently marked lent (idle or borrowed).
func (s *MemSegment) LentMask() cpuset.CPUSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var m cpuset.CPUSet
	for c := s.live.First(); c >= 0; c = s.live.Next(c + 1) {
		if s.cpus[c].lent {
			m.Set(c)
		}
	}
	return m
}

// WatcherCount returns the number of registered watcher channels for
// pid (diagnostics and leak tests).
func (s *MemSegment) WatcherCount(pid PID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.watchers[pid])
}

// watcherPIDs returns the pids with live watcher map entries,
// including empty ones (leak tests).
func (s *MemSegment) watcherPIDs() []PID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PID, 0, len(s.watchers))
	for pid := range s.watchers {
		out = append(out, pid)
	}
	return out
}
