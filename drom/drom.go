// Package drom is the public administrator-side API of the DROM
// module (§3.2): the interface a resource manager, job scheduler or
// user tool uses to re-assign the CPUs of processes running with DLB
// support on a node.
//
// The function set mirrors the paper's C interface one to one:
//
//	DROM_Attach          -> Attach
//	DROM_Detach          -> (*Admin).Detach
//	DROM_GetPidList      -> (*Admin).PIDList
//	DROM_GetProcessMask  -> (*Admin).ProcessMask
//	DROM_SetProcessMask  -> (*Admin).SetProcessMask
//	DROM_PreInit         -> (*Admin).PreInit
//	DROM_PostFinalize    -> (*Admin).PostFinalize
//
// and dlb_drom_flags_t maps to Flags (Sync, Steal, ReturnStolen).
package drom

import (
	"repro/dlb"
	"repro/internal/core"
	"repro/internal/shmem"
)

// Stats are the per-process run-time counters accumulated in shared
// memory (polls, mask changes, LeWI activity).
type Stats = shmem.Stats

// Flags modify the behaviour of the DROM calls (dlb_drom_flags_t).
type Flags = core.Flags

// Flag values.
const (
	// None requests default behaviour.
	None Flags = core.FlagNone
	// Sync blocks until the target process applies the change
	// (DLB_SYNC_QUERY).
	Sync Flags = core.FlagSync
	// Steal allows shrinking other processes to satisfy the request
	// (DLB_STEAL_CPUS).
	Steal Flags = core.FlagSteal
	// ReturnStolen makes PostFinalize return stolen CPUs to their
	// original owners (DLB_RETURN_STOLEN).
	ReturnStolen Flags = core.FlagReturnStolen
)

// Admin is an attached administrator process handle. It serves one
// goroutine at a time (its calls reuse the handle's buffers): attach
// one per goroutine that administers.
type Admin struct {
	a *core.Admin
}

// Attach connects an administrator to a node's DROM system
// (DROM_Attach). Once attached, the administrator can query and
// modify the masks of every process running with DROM support on the
// node.
func Attach(n *dlb.Node) (*Admin, error) {
	a, code := n.Internal().Attach()
	if code.IsError() {
		return nil, code
	}
	return &Admin{a: a}, nil
}

// Detach disconnects the administrator (DROM_Detach).
func (ad *Admin) Detach() error { return ad.a.Detach().Err() }

// PIDList returns the processes registered in the DROM system
// (DROM_GetPidList).
func (ad *Admin) PIDList() ([]dlb.PID, error) {
	pids, code := ad.a.PIDList()
	return pids, code.Err()
}

// ProcessMask returns the current mask of pid (DROM_GetProcessMask).
// With Sync it waits for any pending change to settle first.
func (ad *Admin) ProcessMask(pid dlb.PID, flags Flags) (dlb.CPUSet, error) {
	m, code := ad.a.ProcessMask(pid, flags)
	return m, code.Err()
}

// SetProcessMask stages a new mask for pid (DROM_SetProcessMask). The
// target applies it at its next poll (or immediately in async mode).
// Without Steal, a mask conflicting with other processes fails; with
// Steal the victims are shrunk. With Sync the call waits for the
// target to apply the mask.
func (ad *Admin) SetProcessMask(pid dlb.PID, mask dlb.CPUSet, flags Flags) error {
	return ad.a.SetProcessMask(pid, mask, flags).Err()
}

// PreInit registers a starting process, reserving CPUs and making room
// by shrinking running processes (DROM_PreInit). The typical workflow
// is PreInit → fork/exec → the child's dlb.Init inherits the
// reservation.
func (ad *Admin) PreInit(pid dlb.PID, mask dlb.CPUSet, flags Flags) error {
	return ad.a.PreInit(pid, mask, flags).Err()
}

// PostFinalize removes a previously pre-initialized process after it
// finished (DROM_PostFinalize). With ReturnStolen, CPUs taken at
// PreInit go back to their original owners if those still run.
func (ad *Admin) PostFinalize(pid dlb.PID, flags Flags) error {
	return ad.a.PostFinalize(pid, flags).Err()
}

// Stats returns the run-time counters of pid (polls, mask changes,
// CPUs gained/lost, LeWI lends/borrows): the data-collection extension
// the paper proposes for DROM-aware scheduling policies.
func (ad *Admin) Stats(pid dlb.PID) (Stats, error) {
	st, code := ad.a.Stats(pid)
	return st, code.Err()
}

// ResizeRequest is one outstanding evolving-application request.
type ResizeRequest = core.ResizeRequest

// ResizeRequests lists processes that asked for a different CPU count
// (the PMIx-style evolving model of §2). The manager decides whether
// to grant them with SetProcessMask.
func (ad *Admin) ResizeRequests() ([]ResizeRequest, error) {
	reqs, code := ad.a.ResizeRequests()
	return reqs, code.Err()
}
