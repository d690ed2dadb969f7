package slurm

import (
	"slices"
	"unsafe"

	"repro/internal/sched"
)

// NeverRecycle turns ctl into its never-recycling twin, for the
// external tests that drive whole scenarios through workload.Session:
// the free lists are emptied and stay empty, so every launch and every
// submission allocates its record, instance and callbacks afresh — the
// reference the recycling controller is compared against. (The field
// is unexported and no option sets it; forks inherit it.)
func (ctl *Controller) NeverRecycle() {
	ctl.neverRecycle = true
	ctl.freeRunning, ctl.freeQueued = nil, nil
}

// ArmedCredit sums the credit of the running instances' armed spans:
// how many iterations the engine may still take without a callback.
func (ctl *Controller) ArmedCredit() int64 {
	var n int64
	for pi := range ctl.views {
		for _, r := range ctl.views[pi].rjobs {
			n += r.inst.Credit()
		}
	}
	return n
}

// SharedViewNodes walks every running entry of ctl's views against
// every one of other's and returns how many entries ctl has and how
// many of them share memory with one of other's Nodes arrays.
func (ctl *Controller) SharedViewNodes(other *Controller) (entries, shared int) {
	overlap := func(a, b []int) bool {
		if cap(a) == 0 || cap(b) == 0 {
			return false
		}
		pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
		w := unsafe.Sizeof(int(0))
		return pa < pb+uintptr(cap(b))*w && pb < pa+uintptr(cap(a))*w
	}
	for pi := range ctl.views {
		for _, e := range ctl.views[pi].st.Running {
			entries++
			for pj := range other.views {
				if slices.ContainsFunc(other.views[pj].st.Running, func(o sched.Running) bool { return overlap(e.Nodes, o.Nodes) }) {
					shared++
					break
				}
			}
		}
	}
	return entries, shared
}
