package sched

// Malleable is the DROM-aware scheduler the paper names as future
// work. It behaves like EASY, with two malleability extensions
// executed through the real DROM protocol:
//
//   - shrink-to-admit: when the queue head does not fit, running
//     malleable jobs on the best candidate nodes are shrunk toward the
//     §5 equipartition (never below one CPU per task) and the head is
//     started in the freed CPUs, possibly below its full request.
//   - expand (when Expand is set): once the queue is fully served,
//     running malleable jobs below their request grow back into the
//     free CPUs, one CPU per node at a time to the smallest allocation
//     first — the generalization of the controller's evolving-request
//     service.
type Malleable struct {
	// Expand enables the re-expansion phase (malleable-expand);
	// without it the policy only shrinks (malleable-shrink).
	Expand bool

	sc scratch
	// Per-cycle working state, reused across cycles. allocs, targets
	// and grew are indexed by position in State.Running.
	allocs []int
	// shrinkToFit buffers: victims and order hold positions in
	// State.Running; targets is -1 for a job no chosen node shrinks.
	capacity []int
	newFree  []int
	mins     []int
	maxs     []int
	alloc    []int
	victims  []int
	targets  []int
	order    []int
	// expandInto buffer.
	grew []bool
}

// Name implements Policy.
func (m *Malleable) Name() string {
	if m.Expand {
		return "malleable-expand"
	}
	return "malleable-shrink"
}

// ClonePolicy implements Policy: Expand is the only configuration;
// everything else is per-cycle working state rebuilt at the top of
// each Schedule, so the clone starts cold and plans identically.
func (m *Malleable) ClonePolicy() Policy { return &Malleable{Expand: m.Expand} }

// Schedule implements Policy.
//
//simvet:hotpath
func (m *Malleable) Schedule(s *State) []Action {
	sc := &m.sc
	sc.reset(s)
	allocs := m.allocs[:0]
	for k := range s.Running {
		allocs = append(allocs, s.Running[k].CPUsPerNode)
	}
	m.allocs = allocs
	i := 0
	for i < len(s.Queue) {
		j := &s.Queue[i]
		if nodes := sc.place(sc.free, j.Nodes, j.CPUsPerNode); nodes != nil {
			sc.acts = append(sc.acts, Action{Kind: ActStart, ID: j.ID, Nodes: nodes})
			sc.appendStarted(nodes, j.CPUsPerNode, s.Now+wallOf(j))
			i++
			continue
		}
		target, nodes := m.shrinkToFit(s, j)
		if nodes == nil {
			break // not even malleability can admit the head
		}
		sc.acts = append(sc.acts, Action{Kind: ActStart, ID: j.ID, TargetCPUsPerNode: target, Nodes: nodes})
		sc.appendStarted(nodes, target, s.Now+wallOf(j))
		i++
	}
	if i < len(s.Queue) {
		sc.backfill(s, i, m.allocs)
		return sc.acts
	}
	if m.Expand {
		m.expandInto(s)
	}
	return sc.acts
}

// shrinkToFit plans the admission of head by shrinking running
// malleable jobs. It picks the head.Nodes nodes with the most
// reclaimable capacity, computes the bounded equipartition among the
// victims and the head on each, uniformizes every victim to its
// smallest per-node share, appends the shrink actions, and returns
// the head's starting allocation and its node set. sc.free and
// m.allocs are updated in place on success; on failure everything is
// left untouched and nil nodes are returned.
func (m *Malleable) shrinkToFit(s *State, head *Job) (int, []int) {
	sc := &m.sc
	minNeed := head.MinCPUsPerNode
	if minNeed < 1 {
		minNeed = 1
	}
	// Reclaimable capacity per node.
	capacity := append(m.capacity[:0], sc.free...)
	m.capacity = capacity
	for k := range s.Running {
		r := &s.Running[k]
		if !r.Malleable {
			continue
		}
		if d := m.allocs[k] - r.MinCPUsPerNode; d > 0 {
			for _, n := range r.Nodes {
				if capacity[n] >= 0 { // not on an unavailable (-1) node
					capacity[n] += d
				}
			}
		}
	}
	chosen := sc.place(capacity, head.Nodes, minNeed)
	if chosen == nil {
		return 0, nil
	}

	// Bounded equipartition per chosen node; victims spanning several
	// chosen nodes settle on their smallest share (uniform masks keep
	// the executor simple; any over-shrink is free capacity a later
	// expand reclaims).
	targets := m.targets[:0]
	for range s.Running {
		targets = append(targets, -1)
	}
	m.targets = targets
	headTarget := head.CPUsPerNode
	for _, n := range chosen {
		victims := m.victims[:0]
		mins := m.mins[:0]
		maxs := m.maxs[:0]
		capN := sc.free[n]
		for k := range s.Running {
			r := &s.Running[k]
			if !r.Malleable || !onNode(r, n) {
				continue
			}
			victims = append(victims, k)
			mins = append(mins, r.MinCPUsPerNode)
			maxs = append(maxs, m.allocs[k])
			capN += m.allocs[k]
		}
		mins = append(mins, minNeed)
		maxs = append(maxs, head.CPUsPerNode)
		m.victims, m.mins, m.maxs = victims, mins, maxs
		alloc := WaterfillBounded(m.alloc, capN, mins, maxs)
		if alloc == nil {
			return 0, nil // node cannot host even the minimums
		}
		m.alloc = alloc
		for i, k := range victims {
			if t := targets[k]; t < 0 || alloc[i] < t {
				targets[k] = alloc[i]
			}
		}
		if h := alloc[len(alloc)-1]; h < headTarget {
			headTarget = h
		}
	}

	// Verify the plan before committing: after the shrinks, every
	// chosen node must hold the head's share. order collects the jobs
	// that actually shrink.
	newFree := append(m.newFree[:0], sc.free...)
	m.newFree = newFree
	order := m.order[:0]
	for k, t := range targets {
		if t < 0 || t >= m.allocs[k] {
			continue
		}
		order = append(order, k)
		for _, n := range s.Running[k].Nodes {
			newFree[n] += m.allocs[k] - t
		}
	}
	m.order = order
	for _, n := range chosen {
		if newFree[n] < headTarget {
			headTarget = newFree[n]
		}
	}
	if headTarget < minNeed {
		return 0, nil
	}

	// Commit: emit shrinks in ID order (insertion sort, unique IDs),
	// update free and allocs, carve out the head's share.
	for i := 1; i < len(order); i++ {
		k := order[i]
		j := i
		for j > 0 && s.Running[order[j-1]].ID > s.Running[k].ID {
			order[j] = order[j-1]
			j--
		}
		order[j] = k
	}
	for _, k := range order {
		r := &s.Running[k]
		t := targets[k]
		for _, n := range r.Nodes {
			sc.free[n] += m.allocs[k] - t
		}
		m.allocs[k] = t
		sc.acts = append(sc.acts, Action{Kind: ActShrink, ID: r.ID, TargetCPUsPerNode: t})
	}
	for _, n := range chosen {
		sc.free[n] -= headTarget
	}
	return headTarget, chosen
}

// expandInto grows running malleable jobs below their request into the
// leftover free CPUs, one CPU per node at a time to the smallest
// allocation first (the equipartition in reverse).
func (m *Malleable) expandInto(s *State) {
	sc := &m.sc
	grew := m.grew[:0]
	for range s.Running {
		grew = append(grew, false)
	}
	m.grew = grew
	for {
		best := -1
		for k := range s.Running {
			r := &s.Running[k]
			if !r.Malleable || m.allocs[k] >= r.ReqCPUsPerNode {
				continue
			}
			ok := true
			for _, n := range r.Nodes {
				if sc.free[n] < 1 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if best < 0 || m.allocs[k] < m.allocs[best] {
				best = k
			}
		}
		if best < 0 {
			break
		}
		m.allocs[best]++
		for _, n := range s.Running[best].Nodes {
			sc.free[n]--
		}
		grew[best] = true
	}
	for k := range s.Running {
		if grew[k] {
			sc.acts = append(sc.acts, Action{Kind: ActExpand, ID: s.Running[k].ID, TargetCPUsPerNode: m.allocs[k]})
		}
	}
}

func onNode(r *Running, n int) bool {
	for _, x := range r.Nodes {
		if x == n {
			return true
		}
	}
	return false
}
