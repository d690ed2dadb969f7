package sched

// EASY is aggressive backfilling with a head-job reservation (Lifka's
// EASY scheduler): when the queue head does not fit, it is given a
// reservation at the shadow time — the earliest instant the running
// set's walltime estimates free enough capacity. Jobs behind the head
// may start out of order only when they cannot delay that reservation:
// either they are projected to end before the shadow time, or they fit
// entirely in the capacity the head leaves spare. A stream of small
// jobs can therefore never starve a wide job, which is the defect of
// naive fit-based backfilling.
type EASY struct{ sc scratch }

// Name implements Policy.
func (*EASY) Name() string { return "easy" }

// ClonePolicy implements Policy: EASY keeps no state beyond per-cycle
// scratch, so a clone is simply a fresh instance.
func (*EASY) ClonePolicy() Policy { return &EASY{} }

// Schedule implements Policy.
//
//simvet:hotpath
func (p *EASY) Schedule(s *State) []Action {
	sc := &p.sc
	sc.reset(s)
	i := 0
	for i < len(s.Queue) {
		j := &s.Queue[i]
		nodes := sc.place(sc.free, j.Nodes, j.CPUsPerNode)
		if nodes == nil {
			break
		}
		sc.acts = append(sc.acts, Action{Kind: ActStart, ID: j.ID, Nodes: nodes})
		sc.appendStarted(nodes, j.CPUsPerNode, s.Now+wallOf(j))
		i++
	}
	if i >= len(s.Queue) {
		return sc.acts
	}
	sc.backfill(s, i, nil)
	return sc.acts
}

// backfill starts jobs behind the blocked head s.Queue[headIdx] under
// the EASY guarantee, appending the actions to the cycle's list.
// allocs optionally overrides running allocations by position in
// s.Running (for policies that shrank jobs earlier in the cycle).
// sc.free is consumed in place.
func (sc *scratch) backfill(s *State, headIdx int, allocs []int) {
	shadow, spare := sc.reservation(s, sc.free, &s.Queue[headIdx], allocs)
	for k := headIdx + 1; k < len(s.Queue); k++ {
		j := &s.Queue[k]
		if !fits(sc.free, j.Nodes, j.CPUsPerNode) {
			continue
		}
		if s.Now+wallOf(j) <= shadow {
			// Ends before the head needs the CPUs: the capacity it takes
			// now is back by the shadow time, so the projection at the
			// shadow is unchanged.
			nodes := sc.place(sc.free, j.Nodes, j.CPUsPerNode)
			sc.acts = append(sc.acts, Action{Kind: ActStart, ID: j.ID, Nodes: nodes})
			continue
		}
		// Runs past the shadow: it may only use capacity the head's
		// reservation leaves spare, on nodes that have BOTH free CPUs
		// now and spare CPUs at the shadow — picking them separately
		// could land the job on a reserved node and delay the head.
		comb := append(sc.comb[:0], sc.free...)
		sc.comb = comb
		for i := range comb {
			if spare[i] < comb[i] {
				comb[i] = spare[i]
			}
		}
		nodes := sc.place(comb, j.Nodes, j.CPUsPerNode)
		if nodes == nil {
			continue
		}
		for _, n := range nodes {
			sc.free[n] -= j.CPUsPerNode
			spare[n] -= j.CPUsPerNode
		}
		sc.acts = append(sc.acts, Action{Kind: ActStart, ID: j.ID, Nodes: nodes})
	}
}
