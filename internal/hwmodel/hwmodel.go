// Package hwmodel describes the simulated machine: node topology
// (sockets, cores), clock frequency and memory bandwidth, plus the
// analytic performance helpers (IPC scaling, bandwidth contention)
// used by the application models. The MN3 preset reproduces the
// MareNostrum III nodes of the paper's evaluation: two Intel
// SandyBridge sockets with eight cores each and 128 GB of DDR3.
package hwmodel

import (
	"fmt"

	"repro/internal/cpuset"
)

// Machine describes a homogeneous cluster node type.
type Machine struct {
	// SocketsPerNode and CoresPerSocket define the node topology.
	SocketsPerNode int
	CoresPerSocket int
	// FreqGHz is the core clock in GHz (cycles per nanosecond).
	FreqGHz float64
	// MemBWGBs is the sustainable node memory bandwidth in GB/s.
	MemBWGBs float64
}

// MN3 returns the MareNostrum III node model (§6): 2 sockets × 8
// SandyBridge cores at 2.6 GHz, 128 GB DDR3. The ~41 GB/s node
// bandwidth matches what a 2-socket SandyBridge sustains on STREAM.
func MN3() Machine {
	return Machine{
		SocketsPerNode: 2,
		CoresPerSocket: 8,
		FreqGHz:        2.6,
		MemBWGBs:       41,
	}
}

// CoresPerNode returns the number of cores of one node.
func (m Machine) CoresPerNode() int { return m.SocketsPerNode * m.CoresPerSocket }

// NodeMask returns the full CPU set of a node (CPUs 0..cores-1).
func (m Machine) NodeMask() cpuset.CPUSet {
	return cpuset.Range(0, m.CoresPerNode()-1)
}

// SocketMask returns the CPU set of socket s of a node.
func (m Machine) SocketMask(s int) cpuset.CPUSet {
	if s < 0 || s >= m.SocketsPerNode {
		panic(fmt.Sprintf("hwmodel: socket %d out of range", s))
	}
	lo := s * m.CoresPerSocket
	return cpuset.Range(lo, lo+m.CoresPerSocket-1)
}

// SocketOf returns the socket number of a CPU.
func (m Machine) SocketOf(cpu int) int { return cpu / m.CoresPerSocket }

// Spans reports whether a mask touches more than one socket: threads
// then share data across the socket interconnect, the locality cost
// the task/affinity plugin's placement tries to avoid.
func (m Machine) Spans(mask cpuset.CPUSet) bool {
	first := mask.First()
	if first < 0 {
		return false
	}
	// Single-socket iff the mask is a subset of the first CPU's socket.
	return !mask.IsSubsetOf(m.SocketMask(m.SocketOf(first)))
}

// CyclesPerMicrosecond returns the core clock in cycles/µs, the unit
// of the paper's Figure 13 traces.
func (m Machine) CyclesPerMicrosecond() float64 { return m.FreqGHz * 1e3 }

// IPC models instruction throughput per core as a function of the
// thread count of the process on the node. Fewer threads per rank
// improve locality and reduce shared-cache pressure, which the paper
// observes directly ("increasing IPC switching from Conf. 1 to
// Conf. 2" and "slightly higher IPC ... when running on less number of
// OpenMP threads per MPI rank").
//
// base is the application's IPC at refThreads; alpha is the locality
// slope: ipc = base * (1 + alpha * (refThreads-threads)/refThreads),
// clamped below at 0.1*base.
func IPC(base, alpha float64, threads, refThreads int) float64 {
	if refThreads <= 0 {
		return base
	}
	f := 1 + alpha*float64(refThreads-threads)/float64(refThreads)
	if f < 0.1 {
		f = 0.1
	}
	return base * f
}

// BWSlowdown returns the multiplicative slowdown of memory-bound work
// when total demand exceeds the node's bandwidth capacity. Bandwidth
// is shared proportionally, so every consumer slows by demand/capacity.
func BWSlowdown(totalDemandGBs, capacityGBs float64) float64 {
	if capacityGBs <= 0 || totalDemandGBs <= capacityGBs {
		return 1
	}
	return totalDemandGBs / capacityGBs
}

// SocketAwarePick selects n CPUs from the available set, preferring to
// fill whole sockets before spilling into the next: the placement rule
// of the paper's task/affinity extension ("distributes CPUs trying to
// keep applications in separate sockets in order to improve data
// locality"). Within a socket, lower CPU numbers are taken first.
// It returns fewer than n CPUs when available is too small.
func (m Machine) SocketAwarePick(available cpuset.CPUSet, n int) cpuset.CPUSet {
	var picked cpuset.CPUSet
	// Prefer sockets with the most free CPUs: jobs land on the
	// emptiest socket, keeping co-allocated jobs apart. A socket's free
	// set is what is left of available inside it, recomputed per round
	// (rounds are bounded by the socket count) instead of kept in a
	// per-call table.
	for left := n; left > 0; {
		var best cpuset.CPUSet
		for s := 0; s < m.SocketsPerNode; s++ {
			if free := available.And(m.SocketMask(s)); free.Count() > best.Count() {
				best = free
			}
		}
		if best.IsEmpty() {
			break // available is exhausted: fewer than n CPUs come back
		}
		got := best.TakeLowest(left)
		picked = picked.Or(got)
		available = available.AndNot(got)
		left -= got.Count()
	}
	return picked
}
