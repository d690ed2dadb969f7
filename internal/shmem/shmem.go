// Package shmem emulates the per-node shared memory segments that the
// DLB library creates under /dev/shm. DROM and LeWI coordinate
// processes exclusively through these segments: a lock-protected
// process-info table (one slot per registered process, holding its
// current and pending CPU masks) and a CPU-info table (one slot per
// CPU, holding ownership and guest state for Lend-When-Idle).
//
// In the paper's artifact the segments are POSIX shared memory mapped
// by every process of a node; here a Segment is an in-process object
// obtained from a Registry by name, and "processes" are virtual PIDs.
// The protocol — writers set a future mask plus a dirty flag, targets
// apply it at their next poll, synchronous callers wait for the
// application — is preserved bit for bit.
package shmem

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cpuset"
	"repro/internal/derr"
)

// PID identifies a virtual process within a shmem namespace.
type PID int

// DefaultMaxProcs is the default number of process slots per segment,
// matching DLB's default shared-memory sizing.
const DefaultMaxProcs = 64

// Theft records CPUs taken from a victim process when building the
// initial mask of a new process via DROM_PreInit with the steal flag.
// PostFinalize uses it to give the CPUs back.
type Theft struct {
	Victim PID
	Mask   cpuset.CPUSet
}

// ProcEntry is one slot of the process-info table.
type ProcEntry struct {
	PID PID
	// OwnedMask is the set of CPUs originally allocated to the process
	// (its "fair" share); reclaims and PostFinalize restore toward it.
	OwnedMask cpuset.CPUSet
	// CurrentMask is the mask the process currently runs with.
	CurrentMask cpuset.CPUSet
	// FutureMask is the pending mask written by an administrator; it is
	// only meaningful while Dirty is true.
	FutureMask cpuset.CPUSet
	// Dirty is set by administrators and cleared when the target
	// process applies FutureMask at a poll point.
	Dirty bool
	// PreInit marks entries registered by DROM_PreInit on behalf of a
	// process that has not yet attached (fork/exec window).
	PreInit bool
	// Stolen lists CPUs taken from victims to build this entry's mask.
	Stolen []Theft
	// Stats holds the per-process counters consumable by external
	// entities (the paper's future-work data collection).
	Stats Stats
	// ResizeRequest is the CPU count the process itself asked for (the
	// evolving-application model of the PMIx-style related work, §2:
	// "changes in resources is demanded by the application itself").
	// 0 means no outstanding request.
	ResizeRequest int
}

// EffectiveMask returns the mask that binds planning: a
// staged-but-unapplied change (dirty future) already counts — the CPUs
// it drops are free to promise, the CPUs it gains are taken.
func (e *ProcEntry) EffectiveMask() cpuset.CPUSet {
	if e.Dirty {
		return e.FutureMask
	}
	return e.CurrentMask
}

func (e *ProcEntry) clone() *ProcEntry {
	c := *e
	c.Stolen = append([]Theft(nil), e.Stolen...)
	return &c
}

// MemSegment is the in-memory segment implementation — one node's
// shared memory: a procinfo table plus a cpuinfo table, guarded by a
// single mutex like DLB's lock-protected segment. It is the default
// backend's segment and the reference semantics every other backend
// must match (the file backend literally runs these methods on a
// decoded MemSegment under the file lock).
//
// The cpuinfo table holds one slot per CPU up to the node's highest,
// not one per cpuset.MaxCPUs: a 16-CPU node keeps 16 slots. A CPU
// outside the node has no state — the cpuinfo calls ignore it, and the
// queries never report it — so nothing indexes past the table.
type MemSegment struct {
	name     string
	nodeCPUs cpuset.CPUSet
	maxProcs int

	mu    sync.Mutex
	procs map[PID]*ProcEntry
	// cpus is the cpuinfo table: slot c serves CPU c, for every CPU up
	// to nodeCPUs' highest.
	cpus []cpuState
	// watchers is made by the first Watch: a replay never watches.
	watchers map[PID][]chan struct{}
	// live holds every cpuinfo slot that may be non-zero: a bit is set
	// wherever a slot gains an owner or a guest, and cleared where a
	// slot is zeroed. The per-process scans walk it instead of all
	// cpuset.MaxCPUs slots — a zero slot matches no process, PIDs being
	// positive.
	live cpuset.CPUSet
	// freeProcs holds the slots Unregister emptied, zeroed but for the
	// Stolen backing array, for the next Register/RegisterPreInit to
	// fill: no caller ever holds a slot's pointer (Lookup and Snapshot
	// return copies), so a replay registers its tasks into the same few
	// slots instead of allocating one per task. The list never exceeds
	// the peak of simultaneously registered processes, and a fork starts
	// with none.
	//
	//simvet:freelist
	freeProcs []*ProcEntry
	// generation increments on every mutation; synchronous waiters use
	// it to detect progress without missing wakeups.
	generation uint64
	// cond is made by the first WaitClean, under mu: only synchronous
	// waiters sleep on it, and a replay has none.
	cond *sync.Cond
}

// Name returns the segment's registry name.
func (s *MemSegment) Name() string { return s.name }

// NodeCPUs returns the full CPU set of the node this segment serves.
func (s *MemSegment) NodeCPUs() cpuset.CPUSet { return s.nodeCPUs }

func newSegment(name string, nodeCPUs cpuset.CPUSet, maxProcs int) *MemSegment {
	s := new(MemSegment)
	s.reset(name, nodeCPUs, maxProcs)
	return s
}

// reset makes s what newSegment(name, nodeCPUs, maxProcs) would: no
// process registered, every CPU unowned, generation 0, no watcher. It
// keeps the table's map, the cpuinfo array when it is the node's size,
// and the free list of emptied slots; an entry still registered is
// dropped, not recycled. The caller owns s alone meanwhile.
func (s *MemSegment) reset(name string, nodeCPUs cpuset.CPUSet, maxProcs int) {
	procs := s.procs
	if procs == nil {
		procs = make(map[PID]*ProcEntry)
	}
	clear(procs)
	cpus := s.cpus
	if n := nodeCPUs.Last() + 1; len(cpus) != n {
		cpus = make([]cpuState, n)
	}
	clear(cpus)
	*s = MemSegment{
		name:      name,
		nodeCPUs:  nodeCPUs,
		maxProcs:  maxProcs,
		procs:     procs,
		cpus:      cpus,
		freeProcs: s.freeProcs,
	}
}

// Register adds a process slot with the given owned/current mask.
// It fails with ErrAlreadyInit if the pid is present and not a
// pre-initialized slot, with ErrNoMem if the table is full, and with
// ErrInvalid if the mask is empty or not a subset of the node's CPUs.
//
// Registering a pid that has a PreInit slot completes the two-phase
// DROM_PreInit handshake: the process inherits the reserved mask and
// the slot becomes a normal entry.
func (s *MemSegment) Register(pid PID, mask cpuset.CPUSet) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.procs[pid]; ok {
		if !e.PreInit {
			return derr.ErrAlreadyInit
		}
		// Complete the PreInit handshake; the reserved mask wins over
		// the mask supplied by the process, as in DLB.
		e.PreInit = false
		s.bump()
		return derr.Success
	}
	if len(s.procs) >= s.maxProcs {
		return derr.ErrNoMem
	}
	if mask.IsEmpty() || !mask.IsSubsetOf(s.nodeCPUs) {
		return derr.ErrInvalid
	}
	s.newSlot(pid, mask)
	s.bump()
	return derr.Success
}

// newSlot fills a process slot for pid holding mask — a recycled one
// when Unregister left any — and enters it in the table. Called with
// the lock held.
func (s *MemSegment) newSlot(pid PID, mask cpuset.CPUSet) *ProcEntry {
	var e *ProcEntry
	if n := len(s.freeProcs); n > 0 {
		e, s.freeProcs[n-1] = s.freeProcs[n-1], nil
		s.freeProcs = s.freeProcs[:n-1]
	} else {
		e = new(ProcEntry)
	}
	e.PID, e.OwnedMask, e.CurrentMask = pid, mask, mask
	s.procs[pid] = e
	return e
}

// RegisterPreInit adds a PreInit slot on behalf of a process that will
// attach later (the DROM_PreInit fork/exec window). The entry carries
// the thefts used to build its mask so PostFinalize can undo them.
func (s *MemSegment) RegisterPreInit(pid PID, mask cpuset.CPUSet, stolen []Theft) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.procs[pid]; ok {
		return derr.ErrAlreadyInit
	}
	if len(s.procs) >= s.maxProcs {
		return derr.ErrNoMem
	}
	if mask.IsEmpty() || !mask.IsSubsetOf(s.nodeCPUs) {
		return derr.ErrInvalid
	}
	e := s.newSlot(pid, mask)
	e.PreInit = true
	e.Stolen = append(e.Stolen, stolen...)
	s.bump()
	return derr.Success
}

// Unregister removes a process slot. It returns ErrNoProc if absent.
func (s *MemSegment) Unregister(pid PID) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.procs[pid]
	if !ok {
		return derr.ErrNoProc
	}
	delete(s.procs, pid)
	*e = ProcEntry{Stolen: e.Stolen[:0]}
	if s.freeProcs == nil {
		// The list never holds more slots than were registered at once.
		s.freeProcs = make([]*ProcEntry, 0, len(s.procs)+1)
	}
	s.freeProcs = append(s.freeProcs, e)
	// Drop ownership of the process's CPUs in the cpuinfo table.
	for c := s.live.First(); c >= 0; c = s.live.Next(c + 1) {
		st := &s.cpus[c]
		if st.owner == pid {
			*st = cpuState{}
		} else if st.guest == pid {
			st.guest = st.owner
			st.reclaimPending = false
		}
		if *st == (cpuState{}) {
			s.live.Clear(c)
		}
	}
	s.bump()
	return derr.Success
}

// Lookup returns a copy of the process entry.
func (s *MemSegment) Lookup(pid PID) (ProcEntry, derr.Code) {
	var e ProcEntry
	code := s.LookupInto(pid, &e)
	return e, code
}

// LookupInto copies pid's entry into *dst, its theft list into the
// backing array of dst.Stolen, so a caller that keeps dst reads entries
// without allocating. On error *dst is a blank entry (the array kept).
func (s *MemSegment) LookupInto(pid PID, dst *ProcEntry) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	stolen := dst.Stolen[:0]
	e, ok := s.procs[pid]
	if !ok {
		*dst = ProcEntry{Stolen: stolen}
		return derr.ErrNoProc
	}
	*dst = *e
	dst.Stolen = append(stolen, e.Stolen...)
	return derr.Success
}

// PIDList returns the registered PIDs in ascending order.
func (s *MemSegment) PIDList() []PID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PID, 0, len(s.procs))
	for pid := range s.procs {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumProcs returns the number of registered processes.
func (s *MemSegment) NumProcs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.procs)
}

// UsedMask returns the union of the current masks of all registered
// processes, including pending future masks of dirty entries (a CPU
// promised to a process counts as used).
func (s *MemSegment) UsedMask() cpuset.CPUSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var u cpuset.CPUSet
	for _, e := range s.procs {
		u = u.Or(e.CurrentMask)
		if e.Dirty {
			u = u.Or(e.FutureMask)
		}
	}
	return u
}

// FreeMask returns the node CPUs not used by any registered process.
func (s *MemSegment) FreeMask() cpuset.CPUSet {
	return s.nodeCPUs.AndNot(s.UsedMask())
}

// EffectiveUsedMask returns the union of every slot's binding mask:
// the staged future when the entry is dirty (a pending change is
// already a promise — the CPUs it drops are free to hand out, the CPUs
// it gains are taken), the current mask otherwise. Unlike Snapshot,
// this is a single allocation-free fold under the lock, cheap enough
// for a resource manager to rescan one node on every cache miss.
func (s *MemSegment) EffectiveUsedMask() cpuset.CPUSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	var u cpuset.CPUSet
	for _, e := range s.procs {
		if e.Dirty {
			u = u.Or(e.FutureMask)
		} else {
			u = u.Or(e.CurrentMask)
		}
	}
	return u
}

// ResolveThefts computes the thefts required for pid to take mask,
// appended to dst[:0]: every other entry whose binding mask (staged
// future when dirty, current otherwise) intersects mask contributes its
// overlap, in ascending victim-PID order. With steal false any conflict
// fails with ErrPerm; so does a theft that would leave a victim with no
// CPUs. Unlike walking Snapshot, this is a single pass under the lock
// with no entry cloning: a resource manager that reuses dst resolves
// without allocating, and one that reserves only effectively-free CPUs
// gets an empty list back.
func (s *MemSegment) ResolveThefts(dst []Theft, pid PID, mask cpuset.CPUSet, steal bool) ([]Theft, derr.Code) {
	s.mu.Lock()
	defer s.mu.Unlock()
	thefts := dst[:0]
	for _, e := range s.procs {
		if e.PID == pid {
			continue
		}
		cur := e.CurrentMask
		if e.Dirty {
			cur = e.FutureMask
		}
		conflict := cur.And(mask)
		if conflict.IsEmpty() {
			continue
		}
		if !steal {
			return thefts[:0], derr.ErrPerm
		}
		if cur.AndNot(conflict).IsEmpty() {
			// Stealing would leave the victim with no CPUs.
			return thefts[:0], derr.ErrPerm
		}
		thefts = append(thefts, Theft{Victim: e.PID, Mask: conflict})
	}
	// The map iteration above is unordered; victims must come back in
	// a deterministic order because callers stage the shrinks (and
	// later return the CPUs) in list order.
	slices.SortFunc(thefts, func(a, b Theft) int { return cmp.Compare(a.Victim, b.Victim) })
	return thefts, derr.Success
}

// SetFuture stages a new mask for pid and marks the entry dirty. The
// caller (DROM admin) is responsible for conflict checks; SetFuture
// itself only validates the pid and mask.
func (s *MemSegment) SetFuture(pid PID, mask cpuset.CPUSet) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.procs[pid]
	if !ok {
		return derr.ErrNoProc
	}
	if mask.IsEmpty() || !mask.IsSubsetOf(s.nodeCPUs) {
		return derr.ErrInvalid
	}
	e.FutureMask = mask
	e.Dirty = true
	s.bump()
	s.notifyLocked(pid)
	return derr.Success
}

// ApplyFuture is the target-process side of the protocol: if the entry
// is dirty it promotes FutureMask to CurrentMask, clears the flag and
// returns the new mask with Success; otherwise it returns NoUpdate.
func (s *MemSegment) ApplyFuture(pid PID) (cpuset.CPUSet, derr.Code) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.procs[pid]
	if !ok {
		return cpuset.CPUSet{}, derr.ErrNoProc
	}
	e.Stats.Polls++
	if !e.Dirty {
		return cpuset.CPUSet{}, derr.NoUpdate
	}
	before := e.CurrentMask.Count()
	e.CurrentMask = e.FutureMask
	e.Dirty = false
	e.Stats.MaskChanges++
	if after := e.CurrentMask.Count(); after > before {
		e.Stats.CPUsGained += int64(after - before)
	} else {
		e.Stats.CPUsLost += int64(before - after)
	}
	s.bump()
	return e.CurrentMask, derr.Success
}

// SetResizeRequest records the process's own desired CPU count
// (evolving-application request). n <= 0 clears the request.
func (s *MemSegment) SetResizeRequest(pid PID, n int) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.procs[pid]
	if !ok {
		return derr.ErrNoProc
	}
	if n < 0 {
		n = 0
	}
	e.ResizeRequest = n
	s.bump()
	return derr.Success
}

// SetStolen replaces the theft records of a pid (used when an admin
// shrinks victims after the entry already exists).
func (s *MemSegment) SetStolen(pid PID, stolen []Theft) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.procs[pid]
	if !ok {
		return derr.ErrNoProc
	}
	e.Stolen = append(e.Stolen[:0], stolen...)
	s.bump()
	return derr.Success
}

// Generation returns the segment's mutation counter.
//
//simvet:testonly tests assert an operation mutated nothing
func (s *MemSegment) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generation
}

// WaitClean blocks until the entry for pid is not dirty, the pid
// disappears, or the generation counter advances past maxGens
// mutations without the flag clearing (a coarse deadlock guard used to
// implement synchronous-with-timeout semantics in virtual time). The
// cancel channel aborts the wait.
func (s *MemSegment) WaitClean(pid PID, cancel <-chan struct{}) derr.Code {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		e, ok := s.procs[pid]
		if !ok {
			return derr.ErrNoProc
		}
		if !e.Dirty {
			return derr.Success
		}
		select {
		case <-cancel:
			return derr.ErrTimeout
		default:
		}
		// Wait for any mutation; re-check afterwards. A background
		// goroutine watching cancel pokes the cond so we never sleep
		// past cancellation.
		if s.cond == nil {
			s.cond = sync.NewCond(&s.mu)
		}
		done := make(chan struct{})
		go func() {
			select {
			case <-cancel:
				s.cond.Broadcast()
			case <-done:
			}
		}()
		s.cond.Wait()
		close(done)
	}
}

// Watch subscribes to dirty-flag notifications for pid. The returned
// channel receives a token whenever an administrator stages a mask for
// pid. Used by the async helper-thread mode.
func (s *MemSegment) Watch(pid PID) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch := make(chan struct{}, 1)
	if s.watchers == nil {
		s.watchers = make(map[PID][]chan struct{})
	}
	s.watchers[pid] = append(s.watchers[pid], ch)
	return ch
}

// Unwatch removes a previously registered watcher channel. The last
// watcher of a pid removes the pid's map entry entirely — long-lived
// segments serving many short-lived watchers must not accumulate
// empty slices. Unwatching an unknown channel or pid is a no-op.
func (s *MemSegment) Unwatch(pid PID, ch <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.watchers[pid]
	for i, w := range ws {
		if w == ch {
			if len(ws) == 1 {
				delete(s.watchers, pid)
				return
			}
			s.watchers[pid] = append(ws[:i], ws[i+1:]...)
			return
		}
	}
}

func (s *MemSegment) notifyLocked(pid PID) {
	for _, ch := range s.watchers[pid] {
		select {
		case ch <- struct{}{}:
		default: // watcher already has a pending token
		}
	}
}

// bump must be called with the lock held after any mutation.
func (s *MemSegment) bump() {
	s.generation++
	if s.cond != nil {
		s.cond.Broadcast()
	}
}

// Snapshot returns copies of all entries, for tests and diagnostics.
func (s *MemSegment) Snapshot() []ProcEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ProcEntry, 0, len(s.procs))
	for _, e := range s.procs {
		out = append(out, *e.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// MemBackend is the default in-process backend: a map of MemSegments,
// emulating the /dev/shm namespace. The zero value is not usable; call
// NewMemBackend (or NewRegistry, which wraps one).
type MemBackend struct {
	mu       sync.Mutex
	segments map[string]*MemSegment
	nextPID  int64
}

// NewMemBackend returns an empty in-memory namespace.
func NewMemBackend() *MemBackend {
	r := new(MemBackend)
	r.Reset()
	return r
}

// Reset empties the namespace as if every process in it had exited:
// each segment stays open, with its node CPU set and capacity, but
// holds no process and owns no CPU, and the PID counter starts over —
// the next AllocPID returns what a new backend's would. The caller
// owns the backend alone meanwhile: no other call may run.
func (r *MemBackend) Reset() {
	segments := r.segments
	if segments == nil {
		segments = make(map[string]*MemSegment)
	}
	for _, s := range segments { //simvet:ordered each segment is reset alone; no order-dependent output
		s.reset(s.name, s.nodeCPUs, s.maxProcs)
	}
	*r = MemBackend{segments: segments, nextPID: 1000}
}

// Kind identifies the backend in diagnostics and CLI surfaces.
func (r *MemBackend) Kind() string { return "mem" }

// Open returns the segment with the given name, creating it with the
// provided node CPU set and capacity if absent. Reopening an existing
// segment ignores nodeCPUs/maxProcs, as a second shm_open would.
// The in-memory backend cannot fail.
func (r *MemBackend) Open(name string, nodeCPUs cpuset.CPUSet, maxProcs int) (Segment, error) {
	if maxProcs <= 0 {
		maxProcs = DefaultMaxProcs
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.segments[name]; ok {
		return s, nil
	}
	s := newSegment(name, nodeCPUs, maxProcs)
	r.segments[name] = s
	return s, nil
}

// Get returns the named segment or nil if it does not exist.
func (r *MemBackend) Get(name string) Segment {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.segments[name]; ok {
		return s
	}
	return nil
}

// Delete removes the named segment (shm_unlink).
func (r *MemBackend) Delete(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.segments, name)
}

// Names returns all segment names in sorted order.
func (r *MemBackend) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.segments))
	for n := range r.segments {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AllocPID returns a fresh virtual PID, unique within the backend.
func (r *MemBackend) AllocPID() PID {
	return PID(atomic.AddInt64(&r.nextPID, 1))
}

// Close releases nothing: in-memory segments are garbage-collected.
func (r *MemBackend) Close() error { return nil }
