package sched

// FCFS is the policy extracted from the original controller: strict
// priority order, FIFO within a priority level, head-of-line blocking
// (the paper's untouched slurmctld).
type FCFS struct{ sc scratch }

// Name implements Policy.
func (*FCFS) Name() string { return "fcfs" }

// ClonePolicy implements Policy: FCFS keeps no state beyond per-cycle
// scratch, so a clone is simply a fresh instance.
func (*FCFS) ClonePolicy() Policy { return &FCFS{} }

// Schedule starts queued jobs in order until one does not fit; nothing
// behind the blocked head may run.
//
//simvet:hotpath
func (p *FCFS) Schedule(s *State) []Action {
	sc := &p.sc
	sc.reset(s)
	for k := range s.Queue {
		j := &s.Queue[k]
		nodes := sc.place(sc.free, j.Nodes, j.CPUsPerNode)
		if nodes == nil {
			break
		}
		sc.acts = append(sc.acts, Action{Kind: ActStart, ID: j.ID, Nodes: nodes})
	}
	return sc.acts
}
