package shmem

// File-backed backend: one versioned binary segment file per node in a
// shared directory, so segments outlive the process and two real OS
// processes (slurmsim and dromctl -backend file:...) can run the DROM
// protocol against each other — the closest this simulator gets to the
// POSIX shared memory of the paper's artifact.
//
// Concurrency model: every operation takes an exclusive flock on the
// segment file, decodes it into a private MemSegment, runs the
// corresponding reference method on it, re-encodes and writes back.
// That makes conformance structural — the file backend cannot drift
// from the in-memory semantics, because it literally executes them —
// at the cost of a read-modify-write per call, which is irrelevant at
// CLI/agent rates (the replay hot path stays on MemBackend).
//
// Consistency rules (documented in ARCHITECTURE.md):
//   - the flock is the only synchronization primitive; there is no
//     reader/writer distinction (segments are a few KB);
//   - the generation counter in the header is bumped by the reference
//     methods exactly as in memory, so a cross-process observer sees
//     every change by polling it (the poll loop behind Watch);
//   - Watch and WaitClean are implemented by polling the file at a
//     small interval — notification latency is bounded by
//     filePollInterval rather than being synchronous;
//   - AllocPID draws from a flock-protected counter file, so virtual
//     PIDs are unique across every attached process.
//
// I/O or decode failures surface as derr.ErrNoShmem — to the protocol
// a damaged or vanished segment file looks exactly like a lost
// /dev/shm mapping. Mask-returning reads yield the zero set on error.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cpuset"
	"repro/internal/derr"
)

const (
	segFileExt = ".seg"
	// pidCounterFile holds the cross-process virtual-PID allocator: a
	// single little-endian uint64, last PID handed out.
	pidCounterFile = "pids.ctr"
	// filePollInterval bounds Watch/WaitClean notification latency.
	filePollInterval = 2 * time.Millisecond
)

// FileBackend stores each segment as a flock-protected binary file
// under dir. Safe for concurrent use within a process and across
// processes sharing the directory.
type FileBackend struct {
	dir string

	mu     sync.Mutex
	segs   map[string]*FileSegment
	closed bool
}

// NewFileBackend returns a backend rooted at dir, creating the
// directory if needed. Multiple processes may open backends on the
// same directory.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shmem: file backend: %w", err)
	}
	return &FileBackend{dir: dir, segs: make(map[string]*FileSegment)}, nil
}

// Kind identifies the backend in diagnostics.
func (b *FileBackend) Kind() string { return "file" }

// validSegName rejects names that would escape the directory or
// exceed the encodable length.
func validSegName(name string) error {
	if name == "" || len(name) > maxSegName {
		return fmt.Errorf("shmem: invalid segment name %q", name)
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("shmem: segment name %q may not start with a dot", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("shmem: segment name %q contains %q", name, r)
		}
	}
	return nil
}

func (b *FileBackend) segPath(name string) string {
	return filepath.Join(b.dir, name+segFileExt)
}

// Open returns the named segment, creating its file (initialized with
// the given node CPU set and capacity) if absent. Reopening an
// existing file ignores nodeCPUs/maxProcs and adopts the stored shape,
// as a second shm_open would.
func (b *FileBackend) Open(name string, nodeCPUs cpuset.CPUSet, maxProcs int) (Segment, error) {
	if err := validSegName(name); err != nil {
		return nil, err
	}
	if maxProcs <= 0 {
		maxProcs = DefaultMaxProcs
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errors.New("shmem: file backend closed")
	}
	if s, ok := b.segs[name]; ok {
		return s, nil
	}
	s := &FileSegment{
		name:     name,
		path:     b.segPath(name),
		watchers: make(map[PID][]chan struct{}),
	}
	err := withFlock(s.path, os.O_RDWR|os.O_CREATE, func(fh *os.File) error {
		data, err := io.ReadAll(fh)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			m := newSegment(name, nodeCPUs, maxProcs)
			s.nodeCPUs, s.maxProcs = nodeCPUs, maxProcs
			return writeSegFile(fh, m)
		}
		m, err := decodeSegment(data)
		if err != nil {
			return err
		}
		s.nodeCPUs, s.maxProcs = m.nodeCPUs, m.maxProcs
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("shmem: open segment %q: %w", name, err)
	}
	b.segs[name] = s
	return s, nil
}

// Get returns the named segment or nil if its file does not exist.
func (b *FileBackend) Get(name string) Segment {
	if validSegName(name) != nil {
		return nil
	}
	b.mu.Lock()
	cached, ok := b.segs[name]
	closed := b.closed
	b.mu.Unlock()
	if ok {
		return cached
	}
	if closed {
		return nil
	}
	if _, err := os.Stat(b.segPath(name)); err != nil {
		return nil
	}
	// Adopt the existing file (created by another process).
	s, err := b.Open(name, cpuset.CPUSet{}, 0)
	if err != nil {
		return nil
	}
	return s
}

// Delete removes the named segment and its file (shm_unlink).
func (b *FileBackend) Delete(name string) {
	if validSegName(name) != nil {
		return
	}
	b.mu.Lock()
	s, ok := b.segs[name]
	delete(b.segs, name)
	b.mu.Unlock()
	if ok {
		s.stopPoller()
	}
	os.Remove(b.segPath(name))
}

// Names returns the segment names present in the directory, sorted.
func (b *FileBackend) Names() []string {
	ents, err := os.ReadDir(b.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, ent := range ents {
		n := ent.Name()
		if !ent.Type().IsRegular() || !strings.HasSuffix(n, segFileExt) {
			continue
		}
		names = append(names, strings.TrimSuffix(n, segFileExt))
	}
	sort.Strings(names)
	return names
}

// AllocPID returns a fresh virtual PID, unique across every process
// attached to this directory, via a flock-protected counter file.
func (b *FileBackend) AllocPID() PID {
	var pid PID
	path := filepath.Join(b.dir, pidCounterFile)
	err := withFlock(path, os.O_RDWR|os.O_CREATE, func(fh *os.File) error {
		data, err := io.ReadAll(fh)
		if err != nil {
			return err
		}
		last := int64(1000) // mirror MemBackend's base
		if len(data) >= 8 {
			last = int64(binary.LittleEndian.Uint64(data))
		}
		last++
		pid = PID(last)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(last))
		if _, err := fh.WriteAt(buf[:], 0); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		// Counter unreachable: fall back to a process-local draw far
		// outside the shared range rather than returning 0.
		return PID(1 << 40)
	}
	return pid
}

// Close stops all notification pollers. Segment files stay on disk for
// other processes.
func (b *FileBackend) Close() error {
	b.mu.Lock()
	segs := make([]*FileSegment, 0, len(b.segs))
	for _, s := range b.segs {
		segs = append(segs, s)
	}
	b.segs = make(map[string]*FileSegment)
	b.closed = true
	b.mu.Unlock()
	for _, s := range segs {
		s.stopPoller()
	}
	return nil
}

// fork materializes the directory's current state as a private
// in-memory backend: cheap what-if forks over a shared segment
// directory run entirely in process, invisible to the other attached
// processes.
func (b *FileBackend) fork() Backend {
	mem := NewMemBackend()
	for _, name := range b.Names() {
		m, err := loadSegFile(b.segPath(name))
		if err != nil {
			continue
		}
		mem.segments[name] = m
	}
	// Continue the PID sequence so forked and live allocations do not
	// collide in decision traces.
	path := filepath.Join(b.dir, pidCounterFile)
	if data, err := os.ReadFile(path); err == nil && len(data) >= 8 {
		mem.nextPID = int64(binary.LittleEndian.Uint64(data))
	}
	return mem
}

// FileSegment is a handle on one segment file. All state lives in the
// file; the struct only caches the immutable shape and carries the
// watcher bookkeeping for this process.
type FileSegment struct {
	name     string
	path     string
	nodeCPUs cpuset.CPUSet
	maxProcs int

	mu       sync.Mutex
	watchers map[PID][]chan struct{}
	pollStop chan struct{}
}

// Name returns the segment's registry name.
func (s *FileSegment) Name() string { return s.name }

// NodeCPUs returns the full CPU set of the node this segment serves.
func (s *FileSegment) NodeCPUs() cpuset.CPUSet { return s.nodeCPUs }

// withFlock opens path with the given flags, takes an exclusive flock
// and runs fn. The lock covers the whole critical section; flock is
// per open-file-description, so two backends in one process exclude
// each other exactly like two processes do.
func withFlock(path string, flag int, fn func(*os.File) error) error {
	fh, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return err
	}
	defer fh.Close()
	if err := syscall.Flock(int(fh.Fd()), syscall.LOCK_EX); err != nil {
		return err
	}
	defer syscall.Flock(int(fh.Fd()), syscall.LOCK_UN)
	return fn(fh)
}

func writeSegFile(fh *os.File, m *MemSegment) error {
	out := encodeSegment(m)
	if _, err := fh.WriteAt(out, 0); err != nil {
		return err
	}
	return fh.Truncate(int64(len(out)))
}

// loadSegFile reads and decodes a segment file under its lock.
func loadSegFile(path string) (*MemSegment, error) {
	var m *MemSegment
	err := withFlock(path, os.O_RDWR, func(fh *os.File) error {
		data, err := io.ReadAll(fh)
		if err != nil {
			return err
		}
		m, err = decodeSegment(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// update locks the file, decodes it, runs fn on the decoded reference
// segment and writes the (possibly mutated) state back. Returns false
// when the file could not be read, decoded or written — the segment
// is effectively unreachable.
func (s *FileSegment) update(fn func(m *MemSegment)) bool {
	err := withFlock(s.path, os.O_RDWR, func(fh *os.File) error {
		data, err := io.ReadAll(fh)
		if err != nil {
			return err
		}
		m, err := decodeSegment(data)
		if err != nil {
			return err
		}
		fn(m)
		return writeSegFile(fh, m)
	})
	return err == nil
}

// view is update without the write-back, for pure reads.
func (s *FileSegment) view(fn func(m *MemSegment)) bool {
	m, err := loadSegFile(s.path)
	if err != nil {
		return false
	}
	fn(m)
	return true
}

// --- procinfo table (DROM) ---

// Register adds a process slot; see MemSegment.Register.
func (s *FileSegment) Register(pid PID, mask cpuset.CPUSet) derr.Code {
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { code = m.Register(pid, mask) })
	return code
}

// RegisterPreInit stages a pre-initialized entry; see
// MemSegment.RegisterPreInit.
func (s *FileSegment) RegisterPreInit(pid PID, mask cpuset.CPUSet, stolen []Theft) derr.Code {
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { code = m.RegisterPreInit(pid, mask, stolen) })
	return code
}

// Unregister removes a process slot; see MemSegment.Unregister.
func (s *FileSegment) Unregister(pid PID) derr.Code {
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { code = m.Unregister(pid) })
	return code
}

// Lookup returns a copy of the process entry.
func (s *FileSegment) Lookup(pid PID) (ProcEntry, derr.Code) {
	e, code := ProcEntry{}, derr.ErrNoShmem
	s.view(func(m *MemSegment) { e, code = m.Lookup(pid) })
	return e, code
}

// LookupInto copies the process entry into *dst; see
// MemSegment.LookupInto. An unreadable file is ErrNoShmem, with *dst
// blank.
func (s *FileSegment) LookupInto(pid PID, dst *ProcEntry) derr.Code {
	code := derr.ErrNoShmem
	if !s.view(func(m *MemSegment) { code = m.LookupInto(pid, dst) }) {
		*dst = ProcEntry{Stolen: dst.Stolen[:0]}
	}
	return code
}

// PIDList returns the registered PIDs in ascending order.
func (s *FileSegment) PIDList() []PID {
	var out []PID
	s.view(func(m *MemSegment) { out = m.PIDList() })
	return out
}

// NumProcs returns the number of registered processes.
func (s *FileSegment) NumProcs() int {
	n := 0
	s.view(func(m *MemSegment) { n = m.NumProcs() })
	return n
}

// FreeMask returns the node CPUs not in any current mask.
func (s *FileSegment) FreeMask() cpuset.CPUSet {
	var out cpuset.CPUSet
	s.view(func(m *MemSegment) { out = m.FreeMask() })
	return out
}

// EffectiveUsedMask returns the union of current and pending future
// masks.
func (s *FileSegment) EffectiveUsedMask() cpuset.CPUSet {
	var out cpuset.CPUSet
	s.view(func(m *MemSegment) { out = m.EffectiveUsedMask() })
	return out
}

// ResolveThefts computes (and with steal, stages) the theft plan for
// acquiring mask; see MemSegment.ResolveThefts.
func (s *FileSegment) ResolveThefts(dst []Theft, pid PID, mask cpuset.CPUSet, steal bool) ([]Theft, derr.Code) {
	thefts := dst[:0]
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { thefts, code = m.ResolveThefts(dst, pid, mask, steal) })
	return thefts, code
}

// SetFuture stages a future mask and marks the entry dirty.
func (s *FileSegment) SetFuture(pid PID, mask cpuset.CPUSet) derr.Code {
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { code = m.SetFuture(pid, mask) })
	return code
}

// ApplyFuture applies a staged mask at a poll point.
func (s *FileSegment) ApplyFuture(pid PID) (cpuset.CPUSet, derr.Code) {
	var mask cpuset.CPUSet
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { mask, code = m.ApplyFuture(pid) })
	return mask, code
}

// CreditPolls records n clean polls of pid; see MemSegment.CreditPolls.
func (s *FileSegment) CreditPolls(pid PID, n int64) {
	s.update(func(m *MemSegment) { m.CreditPolls(pid, n) })
}

// SetResizeRequest records a malleability hint for pid.
func (s *FileSegment) SetResizeRequest(pid PID, n int) derr.Code {
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { code = m.SetResizeRequest(pid, n) })
	return code
}

// SetStolen replaces the theft list of pid.
func (s *FileSegment) SetStolen(pid PID, stolen []Theft) derr.Code {
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { code = m.SetStolen(pid, stolen) })
	return code
}

// StatsOf returns a copy of the per-process counters.
func (s *FileSegment) StatsOf(pid PID) (Stats, bool) {
	var st Stats
	ok := false
	s.view(func(m *MemSegment) { st, ok = m.StatsOf(pid) })
	return st, ok
}

// Snapshot returns copies of all entries.
func (s *FileSegment) Snapshot() []ProcEntry {
	var out []ProcEntry
	s.view(func(m *MemSegment) { out = m.Snapshot() })
	return out
}

// --- cpuinfo table (LeWI) ---

// ClaimCPUs takes ownership of mask for pid.
func (s *FileSegment) ClaimCPUs(pid PID, mask cpuset.CPUSet) derr.Code {
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { code = m.ClaimCPUs(pid, mask) })
	return code
}

// ReleaseCPUs gives up ownership of mask.
func (s *FileSegment) ReleaseCPUs(pid PID, mask cpuset.CPUSet) derr.Code {
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { code = m.ReleaseCPUs(pid, mask) })
	return code
}

// LendCPUs hands owned CPUs to the idle pool.
func (s *FileSegment) LendCPUs(pid PID, mask cpuset.CPUSet) derr.Code {
	code := derr.ErrNoShmem
	s.update(func(m *MemSegment) { code = m.LendCPUs(pid, mask) })
	return code
}

// BorrowCPUs acquires up to max CPUs from the pool.
func (s *FileSegment) BorrowCPUs(pid PID, max int) cpuset.CPUSet {
	var got cpuset.CPUSet
	s.update(func(m *MemSegment) { got = m.BorrowCPUs(pid, max) })
	return got
}

// ReclaimCPUs asks for owned CPUs back; see MemSegment.ReclaimCPUs.
func (s *FileSegment) ReclaimCPUs(pid PID, mask cpuset.CPUSet) (recovered, pending cpuset.CPUSet) {
	s.update(func(m *MemSegment) { recovered, pending = m.ReclaimCPUs(pid, mask) })
	return recovered, pending
}

// PollReclaim returns borrowed CPUs whose owner wants them back.
func (s *FileSegment) PollReclaim(pid PID) cpuset.CPUSet {
	var out cpuset.CPUSet
	s.update(func(m *MemSegment) { out = m.PollReclaim(pid) })
	return out
}

// GuestMask returns the CPUs pid is entitled to run on.
func (s *FileSegment) GuestMask(pid PID) cpuset.CPUSet {
	var out cpuset.CPUSet
	s.view(func(m *MemSegment) { out = m.GuestMask(pid) })
	return out
}

// --- synchronization and notification ---

// WaitClean polls the file until the entry for pid is not dirty, the
// pid disappears, or cancel fires. An unreadable file reports
// ErrNoShmem.
func (s *FileSegment) WaitClean(pid PID, cancel <-chan struct{}) derr.Code {
	for {
		e, code := s.Lookup(pid)
		switch {
		case code == derr.ErrNoProc || code == derr.ErrNoShmem:
			return code
		case code == derr.Success && !e.Dirty:
			return derr.Success
		}
		select {
		case <-cancel:
			return derr.ErrTimeout
		case <-time.After(filePollInterval):
		}
	}
}

// Watch subscribes to dirty-flag notifications for pid, served by a
// per-segment polling goroutine (latency <= filePollInterval, vs the
// synchronous delivery of the in-memory backend).
func (s *FileSegment) Watch(pid PID) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan struct{}, 1)
	s.watchers[pid] = append(s.watchers[pid], ch)
	if s.pollStop == nil {
		s.pollStop = make(chan struct{})
		go s.pollLoop(s.pollStop)
	}
	return ch
}

// Unwatch removes a watcher; the last watcher stops the poller.
func (s *FileSegment) Unwatch(pid PID, ch <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.watchers[pid]
	for i, w := range ws {
		if w == ch {
			if len(ws) == 1 {
				delete(s.watchers, pid)
			} else {
				s.watchers[pid] = append(ws[:i], ws[i+1:]...)
			}
			break
		}
	}
	if len(s.watchers) == 0 && s.pollStop != nil {
		close(s.pollStop)
		s.pollStop = nil
	}
}

// pollLoop notifies watchers of dirty entries whenever the generation
// counter moves — including moves made by other processes.
func (s *FileSegment) pollLoop(stop chan struct{}) {
	t := time.NewTicker(filePollInterval)
	defer t.Stop()
	var lastGen uint64
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		m, err := loadSegFile(s.path)
		if err != nil {
			continue
		}
		if m.generation == lastGen {
			continue
		}
		lastGen = m.generation
		s.mu.Lock()
		for pid, chans := range s.watchers {
			e, ok := m.procs[pid]
			if !ok || !e.Dirty {
				continue
			}
			for _, ch := range chans {
				select {
				case ch <- struct{}{}:
				default: // watcher already has a pending token
				}
			}
		}
		s.mu.Unlock()
	}
}

func (s *FileSegment) stopPoller() {
	s.mu.Lock()
	if s.pollStop != nil {
		close(s.pollStop)
		s.pollStop = nil
	}
	s.mu.Unlock()
}

// fork materializes the file's current state as a private in-memory
// segment: what-if replays over a shared directory never touch the
// live file. An unreadable file forks to an empty segment of the same
// shape.
func (s *FileSegment) fork() Segment {
	m, err := loadSegFile(s.path)
	if err != nil {
		return newSegment(s.name, s.nodeCPUs, s.maxProcs)
	}
	return m
}
