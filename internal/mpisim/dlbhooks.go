package mpisim

import "repro/dlb"

// AttachDLB installs PMPI hooks that integrate a rank with DLB (§4.3):
// before an MPI call — every intercepted call can block — the rank
// polls DROM (an extra synchronization point) and, when LeWI is
// enabled, lends its CPUs; after the call it reclaims them. This mirrors DLB's use of the PMPI
// profiling interface — DROM never changes the number of MPI
// processes, interception is "only used to poll DLB and check if there
// are some pending actions to be taken".
func AttachDLB(r *Rank, proc *dlb.Process) {
	r.SetHooks(Hooks{
		Pre: func(Call) {
			// Every interception point is a DROM polling point.
			proc.PollDROM()
			proc.IntoBlockingCall()
		},
		Post: func(Call) {
			proc.OutOfBlockingCall()
			proc.PollDROM()
		},
	})
}
