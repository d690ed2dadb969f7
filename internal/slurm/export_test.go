package slurm

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
	for _, r := range ctl.running {
		n += r.inst.Credit()
	}
	return n
}
