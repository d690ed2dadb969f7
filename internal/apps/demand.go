package apps

import (
	"repro/internal/hwmodel"
	"repro/internal/shmem"
)

// usage is one rank's resource pressure on a node. owner is the
// running instance the rank belongs to (nil for entries recorded
// through the table's exported setters): a change to the ledger that
// moves a contention factor, or a mask staged for pid, wakes it (see
// nodeDemand.changed and Instance.settle).
type usage struct {
	pid     shmem.PID
	bwGBs   float64
	threads int
	owner   *Instance
}

// nodeDemand is the per-node ledger: a compact entry slice (insertion
// order, swap-removed) plus its aggregate sums, recomputed by changed
// after every mutation. The simulator reads the contention factors on
// every iteration of every rank, so the sums are never recomputed per
// read.
type nodeDemand struct {
	idx     map[shmem.PID]int // pid -> position in entries
	entries []usage
	bwSum   float64
	threads int
	// machine is the node's model, taken from the table's default at
	// creation and overridden per node on heterogeneous clusters
	// (SetNodeMachine). Capacity judgments and topology queries on
	// this node go through it.
	machine hwmodel.Machine
}

// changed follows every mutation of the entries: it recomputes the
// sums and wakes every instance with a rank on the node only when
// either contention factor its iterations read — Slowdown or
// CPUShare — differs bit for bit from before. Invariant: outside
// changed, bwSum and threads are the sums of the entries, so the
// factors read on entry are the ones every owner's armed span was
// computed from; with both unmoved, each iteration of the span would
// compute the same duration again, and the span stands.
func (n *nodeDemand) changed() {
	slow, share := n.slowdown(), n.cpuShare()
	n.bwSum, n.threads = 0, 0
	for _, u := range n.entries {
		n.bwSum += u.bwGBs
		n.threads += u.threads
	}
	if n.slowdown() != slow || n.cpuShare() != share {
		n.wake()
	}
}

// wake ends the armed span of every instance with a rank on the node.
func (n *nodeDemand) wake() {
	for i := range n.entries {
		if o := n.entries[i].owner; o != nil {
			o.settle()
		}
	}
}

// slowdown is the node's bandwidth oversubscription factor.
func (n *nodeDemand) slowdown() float64 {
	return hwmodel.BWSlowdown(n.bwSum, n.machine.MemBWGBs)
}

// cpuShare is NodeHandle.CPUShare.
func (n *nodeDemand) cpuShare() float64 {
	cores := n.machine.CoresPerNode()
	if n.threads <= cores {
		return 1
	}
	return float64(cores) / float64(n.threads)
}

// MaskStaged implements core.StageWatcher: the node's DROM system
// reports a mask staged for pid, and the instance running pid must
// poll at its next iteration boundary.
func (n *nodeDemand) MaskStaged(pid shmem.PID) {
	if i, ok := n.idx[pid]; ok && n.entries[i].owner != nil {
		n.entries[i].owner.settle()
	}
}

// setOwner names the instance pid's entry belongs to.
func (n *nodeDemand) setOwner(pid shmem.PID, owner *Instance) {
	if i, ok := n.idx[pid]; ok {
		n.entries[i].owner = owner
	}
}

// DemandTable tracks the memory-bandwidth demand and active thread
// count of every rank on every node, and derives the two contention
// factors of the performance model: the bandwidth slowdown (shared
// memory bus) and the CPU share (oversubscription, for the related-
// work baseline where co-allocated jobs overlap instead of shrinking).
// The workload engine owns one table per cluster; instances update
// their entries whenever their masks change. On heterogeneous
// clusters SetNodeMachine overrides a node's capacity figures, so
// contention is judged against the node's own bandwidth and core
// count rather than the table-wide default.
type DemandTable struct {
	machine hwmodel.Machine
	nodes   map[string]*nodeDemand
	// neverArm: see NeverArm.
	neverArm bool
}

// NeverArm turns every instance placed on the table into the reference
// of the differential tests: it executes each of its iterations and
// never hands a span to the engine (Instance.arm). Tests at any layer
// reach the table through their cluster; no option, flag or scenario
// field leads here, and CI holds that no non-test file calls it. Forks
// of the table inherit it.
//
//simvet:testonly the never-arming reference of the differential tests
func (d *DemandTable) NeverArm() { d.neverArm = true }

// NewDemandTable creates a table for nodes of the given (default)
// machine type.
func NewDemandTable(m hwmodel.Machine) *DemandTable {
	d := new(DemandTable)
	d.Reset(m)
	return d
}

// Reset makes d what NewDemandTable(m) would. The ledgers of the nodes
// d knows stay in it, emptied and back on m — an empty ledger reads as
// an absent one, and a table over the same nodes grows none again —
// with nothing else kept. No instance may hold a handle into d across
// the call.
func (d *DemandTable) Reset(m hwmodel.Machine) {
	nodes := d.nodes
	if nodes == nil {
		nodes = make(map[string]*nodeDemand)
	}
	for _, n := range nodes { //simvet:ordered each ledger is emptied alone; no order-dependent output
		clear(n.idx)
		clear(n.entries) // the owners
		*n = nodeDemand{idx: n.idx, entries: n.entries[:0], machine: m}
	}
	*d = DemandTable{machine: m, nodes: nodes}
}

// ledger returns node's demand ledger, creating it with the table's
// default capacity figures when absent.
func (d *DemandTable) ledger(node string) *nodeDemand {
	n := d.nodes[node]
	if n == nil {
		n = &nodeDemand{
			idx:     make(map[shmem.PID]int),
			machine: d.machine,
		}
		d.nodes[node] = n
	}
	return n
}

// SetNodeMachine pins node's machine model, overriding the table
// default. Heterogeneous clusters call it once per node at
// construction. It wakes the node's instances whether or not a factor
// moves: the machine also decides their ranks' socket spans and the
// tracer's clock.
func (d *DemandTable) SetNodeMachine(node string, m hwmodel.Machine) {
	n := d.ledger(node)
	n.machine = m
	n.wake()
}

// NodeHandle is a cached reference to one node's ledger. The
// per-iteration hot path of every rank reads the node's contention
// factors and (rarely) rewrites its own usage; resolving the node
// name through the map on each of those calls was measurable at
// 100k-job replay scale, so ranks resolve the handle once at
// (re)placement and go through it afterwards.
type NodeHandle struct {
	n *nodeDemand
}

// Handle returns a NodeHandle for node, creating the (empty) ledger
// if needed.
func (d *DemandTable) Handle(node string) NodeHandle {
	return NodeHandle{n: d.ledger(node)}
}

// Slowdown returns the bandwidth oversubscription factor of the node.
func (h NodeHandle) Slowdown() float64 { return h.n.slowdown() }

// CPUShare returns the average fraction of a CPU each active thread
// on the node receives: 1 while the threads fit the cores.
func (h NodeHandle) CPUShare() float64 { return h.n.cpuShare() }

// Machine returns the node's machine model (the table default unless
// overridden with SetNodeMachine).
func (h NodeHandle) Machine() hwmodel.Machine { return h.n.machine }

// SetUsage records the demand of pid on node. Zero values remove it.
func (d *DemandTable) SetUsage(node string, pid shmem.PID, threads int, bwGBs float64) {
	if d.nodes[node] == nil && bwGBs == 0 && threads == 0 {
		return
	}
	d.ledger(node).setUsage(pid, threads, bwGBs, nil)
}

// setUsage is the ledger mutation shared by the table, handle and
// instance paths. Zero values remove the entry; a non-nil owner is
// recorded on it (an existing entry keeps its owner otherwise).
func (n *nodeDemand) setUsage(pid shmem.PID, threads int, bwGBs float64, owner *Instance) {
	i, ok := n.idx[pid]
	if bwGBs == 0 && threads == 0 {
		if !ok {
			return
		}
		last := len(n.entries) - 1
		if i != last {
			n.entries[i] = n.entries[last]
			n.idx[n.entries[i].pid] = i
		}
		n.entries[last] = usage{} // release the owner
		n.entries = n.entries[:last]
		delete(n.idx, pid)
		n.changed()
		return
	}
	if ok {
		if owner != nil {
			n.entries[i].owner = owner
		}
		if n.entries[i].bwGBs == bwGBs && n.entries[i].threads == threads {
			return // no change
		}
		n.entries[i].bwGBs = bwGBs
		n.entries[i].threads = threads
	} else {
		n.idx[pid] = len(n.entries)
		n.entries = append(n.entries, usage{pid: pid, bwGBs: bwGBs, threads: threads, owner: owner})
	}
	n.changed()
}

// Remove drops pid from node.
func (d *DemandTable) Remove(node string, pid shmem.PID) { d.SetUsage(node, pid, 0, 0) }

// Threads returns the summed active thread count on node.
//
//simvet:testonly tests assert a node's ledger is empty
func (d *DemandTable) Threads(node string) int {
	n := d.nodes[node]
	if n == nil {
		return 0
	}
	return n.threads
}
