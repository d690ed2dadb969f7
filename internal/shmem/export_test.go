package shmem

import "fmt"

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
	case *MemSegment:
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.watchers[pid])
	case *FileSegment:
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.watchers[pid])
	case *FaultSegment:
		return watcherCount(s.Segment, pid)
	}
	panic(fmt.Sprintf("shmem: no watchers behind %T", seg))
}
