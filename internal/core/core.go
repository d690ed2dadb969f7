// Package core implements DROM — Dynamic Resource Ownership Management
// — the paper's primary contribution (§3). DROM is the communication
// channel between an administrator process (a resource manager such as
// SLURM, or a user tool) and the processes registered with DLB on a
// node. Administrators re-assign the CPUs of running processes; the
// processes observe the new masks at their next malleability point
// (DLB_PollDROM) or asynchronously via a helper thread.
//
// The package mirrors the C interface of §3.2:
//
//	DROM_Attach          -> System.Attach
//	DROM_Detach          -> Admin.Detach
//	DROM_GetPidList      -> Admin.PIDList
//	DROM_GetProcessMask  -> Admin.ProcessMask
//	DROM_SetProcessMask  -> Admin.SetProcessMask
//	DROM_PreInit         -> Admin.PreInit
//	DROM_PostFinalize    -> Admin.PostFinalize
//
// plus the process-side entry points used by the DLB framework
// (Register, Poll, Unregister).
package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cpuset"
	"repro/internal/derr"
	"repro/internal/shmem"
)

// Flags mirrors dlb_drom_flags_t: options modifying the behaviour of
// the DROM calls.
type Flags uint32

const (
	// FlagNone requests default behaviour.
	FlagNone Flags = 0
	// FlagSync makes SetProcessMask/PreInit wait until the target
	// process has applied the new mask (DLB_SYNC_QUERY).
	FlagSync Flags = 1 << iota
	// FlagSteal allows taking CPUs that other processes currently use,
	// shrinking the victims (DLB_STEAL_CPUS).
	FlagSteal
	// FlagReturnStolen makes PostFinalize give stolen CPUs back to
	// their original owners (DLB_RETURN_STOLEN).
	FlagReturnStolen
)

// Has reports whether all bits of q are set in f.
func (f Flags) Has(q Flags) bool { return f&q == q }

// DefaultSyncTimeout bounds synchronous operations when the caller
// does not override System.SyncTimeout.
const DefaultSyncTimeout = 2 * time.Second

// System is the DROM view over one node's shared memory segment. All
// administrators and processes of a node share one System (or,
// equivalently, open Systems backed by the same segment).
type System struct {
	seg shmem.Segment
	// SyncTimeout bounds FlagSync waits. Zero means DefaultSyncTimeout.
	SyncTimeout time.Duration
	// watcher hears of every mask this System stages (WatchStages).
	watcher StageWatcher
	// regMu guards reg, the entry Register reads a registered mask back
	// into: its theft list's array is kept, so a process registering
	// into a PreInit slot with thefts allocates nothing, and processes
	// may register concurrently.
	regMu sync.Mutex
	reg   shmem.ProcEntry
}

// StageWatcher is told which process a mask was just staged for.
type StageWatcher interface {
	MaskStaged(pid shmem.PID)
}

// WatchStages fills the System's one watcher slot: w hears of every
// mask an administrator of this System stages from now on, whichever
// call staged it (SetProcessMask, a PreInit steal, a PostFinalize
// return). A simulated application that stops polling while nothing
// can be pending relies on it to learn when to poll again; masks
// staged through another System over the same segment, or by another
// OS process, are not reported.
func (s *System) WatchStages(w StageWatcher) { s.watcher = w }

// NewSystem wraps a shared memory segment with the DROM protocol.
func NewSystem(seg shmem.Segment) *System {
	s := new(System)
	s.Reset(seg)
	return s
}

// Reset makes s what NewSystem(seg) would — no watcher, the default
// sync timeout — keeping only the theft array of its registration
// scratch. The caller owns s alone meanwhile.
func (s *System) Reset(seg shmem.Segment) {
	*s = System{seg: seg, reg: shmem.ProcEntry{Stolen: s.reg.Stolen[:0]}}
}

// Segment exposes the underlying shared memory, mainly for the DLB
// framework and tests.
func (s *System) Segment() shmem.Segment { return s.seg }

// NodeCPUs returns the CPU set of the node this System manages.
func (s *System) NodeCPUs() cpuset.CPUSet { return s.seg.NodeCPUs() }

// ---------------------------------------------------------------------
// Administrator side
// ---------------------------------------------------------------------

// Admin is an attached administrator handle (DROM_Attach). An Admin is
// not itself a managed process: it holds no CPUs. One Admin serves one
// goroutine at a time — attach one per goroutine that administers.
type Admin struct {
	sys      *System
	attached bool
	// Scratch of the calls that read entries and resolve thefts: the
	// entry under work and a theft list. Each keeps its array, so the
	// protocol allocates nothing once warm.
	entry  shmem.ProcEntry
	thefts []shmem.Theft
}

// Attach connects an administrator to the DROM system (DROM_Attach).
func (s *System) Attach() (*Admin, derr.Code) {
	if s.seg == nil {
		return nil, derr.ErrNoShmem
	}
	return &Admin{sys: s, attached: true}, derr.Success
}

// System returns the DROM system the administrator is attached to.
func (a *Admin) System() *System { return a.sys }

// Detach disconnects the administrator (DROM_Detach). Further calls on
// the handle fail with ErrNotInit.
func (a *Admin) Detach() derr.Code {
	if !a.attached {
		return derr.ErrNotInit
	}
	a.attached = false
	return derr.Success
}

func (a *Admin) check() derr.Code {
	if a == nil || !a.attached {
		return derr.ErrNotInit
	}
	return derr.Success
}

// PIDList returns the PIDs registered in the DROM system
// (DROM_GetPidList).
func (a *Admin) PIDList() ([]shmem.PID, derr.Code) {
	if c := a.check(); c.IsError() {
		return nil, c
	}
	return a.sys.seg.PIDList(), derr.Success
}

// ProcessMask returns the current mask of pid (DROM_GetProcessMask).
// With FlagSync it first waits for any pending mask to be applied, so
// the caller observes a settled value.
func (a *Admin) ProcessMask(pid shmem.PID, flags Flags) (cpuset.CPUSet, derr.Code) {
	if c := a.check(); c.IsError() {
		return cpuset.CPUSet{}, c
	}
	if flags.Has(FlagSync) {
		if c := a.sys.waitClean(pid); c.IsError() {
			return cpuset.CPUSet{}, c
		}
	}
	if code := a.sys.seg.LookupInto(pid, &a.entry); code.IsError() {
		return cpuset.CPUSet{}, code
	}
	return a.entry.CurrentMask, derr.Success
}

// Inspect returns the full shared-memory entry of pid, for tooling.
func (a *Admin) Inspect(pid shmem.PID) (shmem.ProcEntry, derr.Code) {
	if c := a.check(); c.IsError() {
		return shmem.ProcEntry{}, c
	}
	return a.sys.seg.Lookup(pid)
}

// Peek reads pid's entry into the Admin's scratch and returns it: the
// entry, theft list included, is valid until the next call on this
// Admin. A resource manager that reads masks on every plan peeks
// without allocating; Inspect returns a copy of its own. On error the
// entry is blank.
func (a *Admin) Peek(pid shmem.PID) (*shmem.ProcEntry, derr.Code) {
	if c := a.check(); c.IsError() {
		a.entry = shmem.ProcEntry{Stolen: a.entry.Stolen[:0]}
		return &a.entry, c
	}
	return &a.entry, a.sys.seg.LookupInto(pid, &a.entry)
}

// Stats returns the run-time counters of pid: the paper's future-work
// "collection of useful data from applications at run time" that an
// external entity can consult and feed back to the job scheduler.
func (a *Admin) Stats(pid shmem.PID) (shmem.Stats, derr.Code) {
	if c := a.check(); c.IsError() {
		return shmem.Stats{}, c
	}
	st, ok := a.sys.seg.StatsOf(pid)
	if !ok {
		return shmem.Stats{}, derr.ErrNoProc
	}
	return st, derr.Success
}

// SetProcessMask stages a new mask for pid (DROM_SetProcessMask). The
// target applies it at its next poll.
//
// Conflict rules: CPUs in mask that other processes currently use (or
// are promised) are conflicts. Without FlagSteal the call fails with
// ErrPerm. With FlagSteal the victims are shrunk — their future mask
// loses the conflicting CPUs — unless a victim would end up with an
// empty mask, which fails with ErrPerm (a process cannot be left
// without CPUs through DROM).
//
// With FlagSync the call additionally waits until the target process
// applies the new mask, failing with ErrTimeout after
// System.SyncTimeout.
func (a *Admin) SetProcessMask(pid shmem.PID, mask cpuset.CPUSet, flags Flags) derr.Code {
	if c := a.check(); c.IsError() {
		return c
	}
	if code := a.stageMask(pid, mask, flags); code.IsError() {
		return code
	}
	if flags.Has(FlagSync) {
		return a.sys.waitClean(pid)
	}
	return derr.Success
}

// PreInit registers a starting process into the DROM system
// (DROM_PreInit), reserving the CPUs in mask — making room in the node
// by shrinking other running processes when FlagSteal is set. The
// usual workflow (Figure 2) is: the launcher calls PreInit with the
// PID the child will use, then forks/execs; the child's DLB Init
// completes the handshake and inherits the reserved mask.
func (a *Admin) PreInit(pid shmem.PID, mask cpuset.CPUSet, flags Flags) derr.Code {
	if c := a.check(); c.IsError() {
		return c
	}
	if mask.IsEmpty() || !mask.IsSubsetOf(a.sys.seg.NodeCPUs()) {
		return derr.ErrInvalid
	}
	thefts, code := a.resolveConflicts(pid, mask, flags)
	if code.IsError() {
		return code
	}
	if code := a.sys.seg.RegisterPreInit(pid, mask, thefts); code.IsError() {
		// Roll back nothing: resolveConflicts staged victim shrinks
		// only on success path below, see stageVictims.
		return code
	}
	if code := a.stageVictims(thefts); code.IsError() {
		return code
	}
	if flags.Has(FlagSync) {
		for _, th := range thefts {
			if c := a.sys.waitClean(th.Victim); c.IsError() {
				return c
			}
		}
	}
	return derr.Success
}

// PostFinalize removes a previously pre-initialized (or registered)
// process from the DROM system (DROM_PostFinalize). With
// FlagReturnStolen, CPUs that PreInit stole are staged back to their
// original owners, provided those processes are still registered and
// still polling.
func (a *Admin) PostFinalize(pid shmem.PID, flags Flags) derr.Code {
	if c := a.check(); c.IsError() {
		return c
	}
	e := &a.entry
	if code := a.sys.seg.LookupInto(pid, e); code.IsError() {
		return code
	}
	// The thefts outlive the entry: Unregister recycles its slot, and
	// the loop below reads each victim into the same scratch.
	stolen := append(a.thefts[:0], e.Stolen...)
	a.thefts = stolen
	// What the process actually held at the end: CPUs it stole but
	// later lost (re-stolen by another PreInit/SetProcessMask) must
	// NOT be returned — they belong to someone else now.
	held := e.CurrentMask
	if e.Dirty {
		held = e.FutureMask
	}
	if code := a.sys.seg.Unregister(pid); code.IsError() {
		return code
	}
	if flags.Has(FlagReturnStolen) {
		for _, th := range stolen {
			ve := &a.entry
			if code := a.sys.seg.LookupInto(th.Victim, ve); code.IsError() {
				continue // victim already gone; CPUs stay free
			}
			// Clip the return to CPUs the dead process still held and
			// that are genuinely free right now (FreeMask accounts for
			// futures staged by earlier iterations of this loop).
			give := th.Mask.And(held).And(a.sys.seg.FreeMask())
			if give.IsEmpty() {
				continue
			}
			base := ve.CurrentMask
			if ve.Dirty {
				base = ve.FutureMask
			}
			a.sys.setFuture(th.Victim, base.Or(give))
		}
	}
	return derr.Success
}

// ---------------------------------------------------------------------
// Process side (used by the DLB framework)
// ---------------------------------------------------------------------

// Register adds a process with its initial mask. If an administrator
// pre-initialized this PID, the reserved mask wins (two-phase PreInit
// handshake) and the returned mask reflects it.
func (s *System) Register(pid shmem.PID, mask cpuset.CPUSet) (cpuset.CPUSet, derr.Code) {
	code := s.seg.Register(pid, mask)
	if code.IsError() {
		return cpuset.CPUSet{}, code
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if code := s.seg.LookupInto(pid, &s.reg); code.IsError() {
		return cpuset.CPUSet{}, code
	}
	return s.reg.CurrentMask, derr.Success
}

// Poll is DLB_PollDROM: it checks for a pending mask and applies it.
// On Success the new mask is returned; NoUpdate means nothing pending.
func (s *System) Poll(pid shmem.PID) (cpuset.CPUSet, derr.Code) {
	return s.seg.ApplyFuture(pid)
}

// CreditPolls records n polls of pid that would have found nothing
// pending, without issuing them; see shmem.MemSegment.CreditPolls.
func (s *System) CreditPolls(pid shmem.PID, n int64) { s.seg.CreditPolls(pid, n) }

// Unregister removes the process from the system (process-side
// finalization, DLB_Finalize).
func (s *System) Unregister(pid shmem.PID) derr.Code {
	return s.seg.Unregister(pid)
}

// ---------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------

// resolveConflicts computes the victim shrink set for taking mask on
// behalf of pid, into the Admin's theft scratch. It returns the theft
// records without staging them. The segment does the scan in one
// locked pass (ascending victim PID, no entry cloning), so a resolve
// allocates nothing once the scratch is warm.
func (a *Admin) resolveConflicts(pid shmem.PID, mask cpuset.CPUSet, flags Flags) ([]shmem.Theft, derr.Code) {
	thefts, code := a.sys.seg.ResolveThefts(a.thefts, pid, mask, flags.Has(FlagSteal))
	a.thefts = thefts
	return thefts, code
}

// stageVictims writes the shrunken future masks of all theft victims,
// reading each into the Admin's entry scratch.
func (a *Admin) stageVictims(thefts []shmem.Theft) derr.Code {
	e := &a.entry
	for _, th := range thefts {
		if code := a.sys.seg.LookupInto(th.Victim, e); code.IsError() {
			return code
		}
		base := e.CurrentMask
		if e.Dirty {
			base = e.FutureMask
		}
		if code := a.sys.setFuture(th.Victim, base.AndNot(th.Mask)); code.IsError() {
			return code
		}
	}
	return derr.Success
}

// stageMask validates and stages a new mask for pid, shrinking victims
// when stealing is allowed.
func (a *Admin) stageMask(pid shmem.PID, mask cpuset.CPUSet, flags Flags) derr.Code {
	seg := a.sys.seg
	if mask.IsEmpty() || !mask.IsSubsetOf(seg.NodeCPUs()) {
		return derr.ErrInvalid
	}
	if code := seg.LookupInto(pid, &a.entry); code.IsError() {
		return code
	}
	thefts, code := a.resolveConflicts(pid, mask, flags)
	if code.IsError() {
		return code
	}
	if code := a.stageVictims(thefts); code.IsError() {
		return code
	}
	if len(thefts) > 0 {
		// Record the thefts so PostFinalize can undo them later.
		seg.LookupInto(pid, &a.entry)
		seg.SetStolen(pid, append(a.entry.Stolen, thefts...))
	}
	return a.sys.setFuture(pid, mask)
}

// setFuture is the one place this System stages a mask. The watcher
// hears of every attempt: a write the registry dropped or refused
// costs it a needless poll, a missed one would cost a late mask.
func (s *System) setFuture(pid shmem.PID, mask cpuset.CPUSet) derr.Code {
	code := s.seg.SetFuture(pid, mask)
	if s.watcher != nil {
		s.watcher.MaskStaged(pid)
	}
	return code
}

// waitClean blocks until pid has applied any pending mask, bounded by
// SyncTimeout.
func (s *System) waitClean(pid shmem.PID) derr.Code {
	timeout := s.SyncTimeout
	if timeout <= 0 {
		timeout = DefaultSyncTimeout
	}
	cancel := make(chan struct{})
	timer := time.AfterFunc(timeout, func() { close(cancel) })
	defer timer.Stop()
	return s.seg.WaitClean(pid, cancel)
}

func (s *System) String() string {
	return fmt.Sprintf("drom.System(node=%s cpus=%s procs=%d)",
		s.seg.Name(), s.seg.NodeCPUs(), s.seg.NumProcs())
}
