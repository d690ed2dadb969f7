// Package slurm simulates the SLURM pieces the paper modifies (§5): a
// cluster controller (slurmctld) with a priority queue and node
// selection, per-node daemons (slurmd) whose task/affinity plugin
// computes CPU masks for new *and running* jobs, and step daemons
// (slurmstepd) that apply masks at launch and finalize tasks. The
// DROM-enabled code path implements the Figure 2 protocol:
//
//	launch_request (1)  slurmd computes masks, shrinking running jobs
//	pre_launch     (2)  slurmstepd reserves via DROM_PreInit (2.1)
//	DLB_PollDROM   (3)  running tasks apply the shrink at a safe point
//	post_term      (4)  DROM_PostFinalize (4.1) returns stolen CPUs
//	release_res.   (5)  freed CPUs redistributed to running tasks (5.1)
package slurm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Policy selects how the controller treats busy nodes.
type Policy int

const (
	// PolicySerial is the baseline: nodes are exclusive, a job waits
	// until its nodes are completely free (the paper's "Serial"
	// scenario).
	PolicySerial Policy = iota
	// PolicyDROM co-allocates jobs on busy nodes by repartitioning
	// CPUs through DROM (the paper's contribution).
	PolicyDROM
	// PolicyOversubscribe co-allocates *without* shrinking: masks
	// overlap and CPUs are time-shared. The related-work baseline
	// ([14]/[26]) that DROM is designed to beat; used by the ablation
	// benches.
	PolicyOversubscribe
	// PolicyPreempt checkpoints and requeues lower-priority running
	// jobs when a higher-priority job arrives (the other §6.2 baseline:
	// "the already running job needs to be preempted ... which would
	// degrade the performance"). Checkpoint and restart costs apply.
	PolicyPreempt
)

func (p Policy) String() string {
	switch p {
	case PolicySerial:
		return "serial"
	case PolicyDROM:
		return "drom"
	case PolicyOversubscribe:
		return "oversubscribe"
	case PolicyPreempt:
		return "preempt"
	}
	return "?"
}

// Cluster is the simulated machine: nodes with DROM shared memory,
// the demand table coupling co-runners, and the event engine. A
// cluster is a sequence of named partitions (hwmodel.ClusterSpec),
// each a homogeneous pool of one machine type; nodes are numbered
// globally and contiguously in partition order, so partition p owns
// the index range [Spec.NodeOffset(p), Spec.NodeOffset(p)+Nodes).
type Cluster struct {
	// Machine is the node model of the first partition — the whole
	// cluster's model in the homogeneous case every paper scenario
	// uses. Heterogeneous code paths must go through MachineOfNode.
	Machine hwmodel.Machine
	// Spec is the partition layout.
	Spec  hwmodel.ClusterSpec
	Nodes []string

	Engine *sim.Engine
	Demand *apps.DemandTable
	Tracer *trace.Tracer // optional

	reg      *shmem.Registry
	sys      map[string]*core.System
	sysAt    []*core.System    // node index -> DROM system
	machines []hwmodel.Machine // node index -> machine model
	partOf   []int             // node index -> partition index
	// nameRank is each node's position in name order (node index ->
	// rank): "node10" sorts before "node9", so the index order is not
	// the name order. Every placement lists its nodes by name, and a
	// comparison of two ranks replaces one of two strings.
	nameRank []int32
}

// DefaultPartition names the single partition of a homogeneous
// cluster.
const DefaultPartition = "batch"

// NewClusterSpecReg builds a partitioned cluster from an explicit
// layout over a shmem registry (nil selects a fresh in-memory one).
// Each node opens its own DROM shared-memory segment sized to its
// partition's machine. A file-backed registry makes
// the cluster's segments visible to other OS processes — slurmsim's
// agent mode and schedd's -shmem flag use this; the replay hot path
// stays on the in-memory default.
//
//simvet:testonly replays reset the cluster of a kit (Reset); tests build one
func NewClusterSpecReg(eng *sim.Engine, spec hwmodel.ClusterSpec, tracer *trace.Tracer, reg *shmem.Registry) (*Cluster, error) {
	c := new(Cluster)
	if err := c.Reset(eng, spec, tracer, reg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset makes c what NewClusterSpecReg(eng, spec, tracer, reg) would.
// With a nil reg, a cluster of the same layout over its own in-memory
// registry keeps its nodes: their names and ranks, their segments
// (emptied: shmem.MemBackend.Reset), their DROM systems (reset) and
// their demand ledgers (emptied). Anything else is built afresh, so
// nothing a fork shares is ever rewritten. The caller owns c alone,
// and no controller or instance may still act on it.
func (c *Cluster) Reset(eng *sim.Engine, spec hwmodel.ClusterSpec, tracer *trace.Tracer, reg *shmem.Registry) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	var mem *shmem.MemBackend
	if c.reg != nil {
		mem, _ = c.reg.Backend.(*shmem.MemBackend)
	}
	machine := spec.Partitions[0].Machine
	if reg == nil && mem != nil && slices.Equal(spec.Partitions, c.Spec.Partitions) {
		mem.Reset()
		for _, sys := range c.sysAt {
			sys.Reset(sys.Segment())
		}
		c.Demand.Reset(machine)
		*c = Cluster{
			Machine: machine, Spec: spec, Nodes: c.Nodes,
			Engine: eng, Demand: c.Demand, Tracer: tracer,
			reg: c.reg, sys: c.sys, sysAt: c.sysAt,
			machines: c.machines, partOf: c.partOf, nameRank: c.nameRank,
		}
		c.pinMachines()
		return nil
	}
	if reg == nil {
		reg = shmem.NewRegistry()
	}
	n := spec.TotalNodes()
	names := nodeNames(n)
	*c = Cluster{
		Machine:  machine,
		Spec:     spec,
		Nodes:    names,
		Engine:   eng,
		Demand:   apps.NewDemandTable(machine),
		Tracer:   tracer,
		reg:      reg,
		sys:      make(map[string]*core.System, n),
		sysAt:    make([]*core.System, 0, n),
		machines: make([]hwmodel.Machine, 0, n),
		partOf:   make([]int, 0, n),
		nameRank: rankByName(names),
	}
	i := 0
	for pi, p := range spec.Partitions {
		for k := 0; k < p.Nodes; k++ {
			name := c.Nodes[i]
			seg, err := c.reg.Open(name, p.Machine.NodeMask(), 0)
			if err != nil {
				return fmt.Errorf("slurm: open segment for %s: %w", name, err)
			}
			c.machines = append(c.machines, p.Machine)
			c.partOf = append(c.partOf, pi)
			sys := core.NewSystem(seg)
			c.sys[name] = sys
			c.sysAt = append(c.sysAt, sys)
			i++
		}
	}
	c.pinMachines()
	return nil
}

// pinMachines gives each node of a heterogeneous cluster its own
// machine in the demand table.
func (c *Cluster) pinMachines() {
	if len(c.Spec.Partitions) == 1 {
		return
	}
	for i, name := range c.Nodes {
		c.Demand.SetNodeMachine(name, c.machines[i])
	}
}

// nodeNames returns the names of n nodes, "node0" to "node<n-1>".
func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = "node" + strconv.Itoa(i)
	}
	return names
}

// rankByName returns each name's position in sorted order.
func rankByName(names []string) []int32 {
	order := make([]int32, len(names))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	rank := make([]int32, len(names))
	for r, i := range order {
		rank[i] = int32(r)
	}
	return rank
}

// System returns the DROM system of a node.
func (c *Cluster) System(node string) *core.System { return c.sys[node] }

// SystemAt returns the DROM system of the node at global index i.
func (c *Cluster) SystemAt(i int) *core.System { return c.sysAt[i] }

// MachineOfNode returns the machine model of the node at global
// index i.
func (c *Cluster) MachineOfNode(i int) hwmodel.Machine { return c.machines[i] }

// PartitionOfNode returns the partition index of the node at global
// index i.
func (c *Cluster) PartitionOfNode(i int) int { return c.partOf[i] }

// AllocPID returns a fresh virtual PID.
func (c *Cluster) AllocPID() shmem.PID { return c.reg.AllocPID() }

// Job is one submission.
type Job struct {
	Name string
	Spec apps.Spec
	Cfg  apps.Config
	// Iters overrides the spec's default iteration count (job size).
	Iters int
	// Nodes is the number of nodes requested (the paper always uses 2).
	Nodes int
	// Priority orders the queue (higher first, FIFO within equal).
	Priority int
	// Walltime is the user's runtime estimate in seconds (sbatch
	// --time). EASY-style reservations and backfill guards rely on it;
	// 0 means unknown and sched.DefaultWalltime applies.
	Walltime float64
	// Malleable marks the job as DROM-capable. Non-malleable jobs are
	// never shrunk and never co-allocated onto.
	Malleable bool
	// Partition names the partition the job targets (sbatch
	// --partition); empty selects the cluster's first partition. A job
	// is placed entirely inside its partition — allocations never mix
	// node shapes.
	Partition string
	// FailAfter, when > 0, ends the job prematurely that many virtual
	// seconds after it is scheduled (a mid-run failure or scancel):
	// its tasks are finalized and its CPUs freed exactly as on a
	// normal termination, just earlier than the walltime promised the
	// scheduler. Fault-aware SWF replays set it from the trace's
	// actual-runtime field of failed/cancelled records.
	FailAfter float64
	// FailOutcome is the outcome recorded when FailAfter fires;
	// leaving it zero records metrics.OutcomeFailed.
	FailOutcome metrics.Outcome
}

// Validate checks the job shape against its target partition.
func (j *Job) Validate(cluster *Cluster) error {
	pi, ok := cluster.Spec.PartitionIndex(j.Partition)
	if !ok {
		return fmt.Errorf("slurm: job %s targets unknown partition %q (cluster is %s)",
			j.Name, j.Partition, cluster.Spec)
	}
	part := cluster.Spec.Partitions[pi]
	if j.Nodes <= 0 || j.Nodes > part.Nodes {
		return fmt.Errorf("slurm: job %s wants %d nodes, partition %s has %d",
			j.Name, j.Nodes, part.Name, part.Nodes)
	}
	if j.Cfg.Ranks%j.Nodes != 0 {
		return fmt.Errorf("slurm: job %s has %d ranks over %d nodes (must divide)", j.Name, j.Cfg.Ranks, j.Nodes)
	}
	if j.Cfg.Threads < 1 || j.Cfg.Ranks < 1 {
		return fmt.Errorf("slurm: job %s has invalid config %v", j.Name, j.Cfg)
	}
	// Each factor is bounded before the product, which could otherwise
	// overflow past the check.
	cores, rpn := part.Machine.CoresPerNode(), j.Cfg.Ranks/j.Nodes
	if rpn > cores || j.Cfg.Threads > cores || rpn*j.Cfg.Threads > cores {
		return fmt.Errorf("slurm: job %s wants %d ranks of %d threads per node, a %s node has %d CPUs",
			j.Name, rpn, j.Cfg.Threads, part.Name, cores)
	}
	return nil
}

// RanksPerNode returns how many of the job's MPI ranks land on each
// node.
func (j *Job) RanksPerNode() int { return j.Cfg.Ranks / j.Nodes }

// CPUsPerNode returns the CPUs the job requests on each node.
func (j *Job) CPUsPerNode() int { return j.RanksPerNode() * j.Cfg.Threads }
