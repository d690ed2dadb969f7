// Package workload assembles and runs the paper's evaluation scenarios
// (§6): use case 1 (in-situ analytics) and use case 2 (high-priority
// job), under the Serial baseline and the DROM-enabled SLURM. It
// produces the measurements behind every figure of the evaluation.
package workload

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/slurm"
	"repro/internal/trace"
)

// Submission schedules one job at a virtual time.
type Submission struct {
	Job slurm.Job
	At  float64
	// Cancel requests an scancel at CancelAt: a still-queued job
	// leaves the queue without ever starting, a running job is
	// killed. Fault-aware SWF replays set it for
	// cancelled-while-queued trace records.
	Cancel bool
	// CancelAt is the absolute virtual time of the scancel (clamped
	// to the submission instant; meaningful only when Cancel is set —
	// an explicit flag rather than a >0 sentinel, because a trace can
	// legitimately cancel a job submitted at t=0 with zero wait).
	CancelAt float64
}

// Scenario is a reproducible workload description.
type Scenario struct {
	Name  string
	Nodes int
	Subs  []Submission
	// Trace enables per-thread tracing (needed for Figures 5, 13, 14).
	Trace bool
	// Cluster, when non-empty, overrides Nodes with a partitioned
	// heterogeneous layout (hwmodel.ParseCluster grammar;
	// jobs target partitions by name via slurm.Job.Partition).
	Cluster hwmodel.ClusterSpec
	// Dropped carries the parse-level drop counts of the trace mapping
	// that built the scenario; the runner copies them onto the
	// result's metrics.Workload so trace coverage is reported.
	Dropped metrics.DropStats
	// Spill enables the cross-partition spillover pass of sched-driven
	// runs (slurm.Controller.Spillover): a queued job whose home
	// partition cannot host it may be re-routed to another partition
	// that fits its shape, guarded by the host's EASY head
	// reservation. SpillAfter / SpillDepth are the eligibility
	// thresholds (minimum queue wait in seconds; minimum home-backlog
	// depth).
	Spill      bool
	SpillAfter float64
	SpillDepth int
	// JitterFrac adds seeded run-to-run variability to iteration
	// durations, each scaled by a factor in [1-JitterFrac, 1+JitterFrac)
	// (0 = deterministic; a session refuses a value outside [0, 1)); Seed
	// selects the stream.
	JitterFrac float64
	Seed       int64
	// NodeFaults is a deterministic fault script ("node3:down@100..400"
	// entries joined with '+' or ';'; see slurm.FaultPlan). MTBF > 0
	// additionally arms a seeded random per-node failure process with
	// repair time MTTR; FaultSeed selects its stream. MaxRequeues
	// bounds how often a fault-killed job is requeued before it is
	// recorded OutcomeNodeFailed (0 = slurm.DefaultMaxRequeues,
	// negative = no requeues). All zero values leave the fault model
	// uninstalled and the run byte-identical to a fault-free one.
	NodeFaults  string
	MTBF        float64
	MTTR        float64
	MaxRequeues int
	FaultSeed   int64
	// DebugInvariants makes the controller cross-check its incremental
	// free-CPU accounting against a full shared-memory re-scan after
	// every scheduling cycle (slow; for tests and -check runs).
	DebugInvariants bool
	// Probe receives observability events from the controller (and an
	// engine heartbeat): scheduling cycles, policy passes, action
	// outcomes, spillover verdicts, job lifecycle transitions. Nil
	// disables instrumentation; probes must never affect decisions.
	Probe obs.Probe
	// ShmemDir, when non-empty, backs the cluster's DROM segments with
	// the file-based shmem backend rooted at this directory instead of
	// the in-process one, so external OS processes (dromctl -backend
	// file:..., other tools) can inspect and mutate the live segments
	// while the run executes. Forks of a file-backed session snapshot
	// into private in-memory copies, leaving the live files alone.
	ShmemDir string
}

// engineProbeEvery is the engine-heartbeat period of probed runs, in
// engine steps — executed events and the steady iterations the engine
// advances without executing alike, so the heartbeat's virtual-time
// spacing does not depend on how many of them it skips: frequent
// enough to bound sampler staleness between scheduling cycles, rare
// enough to be free.
const engineProbeEvery = 1 << 16

// installProbe hands the scenario's probe to the controller and arms
// the engine heartbeat.
func installProbe(eng *sim.Engine, ctl *slurm.Controller, s Scenario) {
	p := s.Probe
	if p == nil {
		return
	}
	ctl.Probe = p
	eng.EveryProcessed(engineProbeEvery, func(now float64, processed, skipped int64) {
		p.Emit(obs.Event{Kind: obs.KindEngine, Time: now, Processed: processed, Skipped: skipped})
	})
}

// clusterSpec resolves the scenario's cluster layout: the explicit
// partitioned spec when set, otherwise a single default-named
// partition of Nodes (default 2) MN3 nodes. Every consumer of the cluster
// dimensions must go through here so metrics and simulation can never
// disagree.
func (s Scenario) clusterSpec() hwmodel.ClusterSpec {
	if len(s.Cluster.Partitions) > 0 {
		return s.Cluster
	}
	nodes := s.Nodes
	if nodes <= 0 {
		nodes = 2
	}
	return hwmodel.Homogeneous(slurm.DefaultPartition, hwmodel.MN3(), nodes)
}

// totalCores returns the CPU capacity summed over all partitions.
func (s Scenario) totalCores() int {
	total := 0
	for _, p := range s.clusterSpec().Partitions {
		total += p.Nodes * p.Machine.CoresPerNode()
	}
	return total
}

// Result is one scenario execution.
type Result struct {
	Policy  slurm.Policy
	Records metrics.Workload
	Tracer  *trace.Tracer
	// SchedCycles counts the scheduling-policy passes the controller
	// executed (0 when no sched.Policy was installed).
	SchedCycles int64
	// Events counts the discrete events the simulation executed, Steps
	// those plus the steady application iterations the engine advanced
	// without executing (sim.Engine.Skipped). Steps depends only on the
	// replay's decisions; how it splits is the engine's business.
	Events int64
	Steps  int64
	Err    error
}

// Run executes the scenario under the given policy on an MN3-like
// cluster and returns the collected metrics.
func Run(s Scenario, policy slurm.Policy) Result {
	return replay(s, newSliceSource(s.Subs), policy, nil)
}

// installSched installs the scenario's scheduling configuration on a
// controller: the sched policy or per-partition policy set (when
// given; it then takes over queue ordering and admission), the
// spillover knobs and the node fault plan.
func installSched(ctl *slurm.Controller, s Scenario, install func(*slurm.Controller) error) error {
	if install != nil {
		if err := install(ctl); err != nil {
			return err
		}
	}
	ctl.Spillover = s.Spill
	ctl.SpillAfter = s.SpillAfter
	ctl.SpillDepth = s.SpillDepth
	return ctl.InstallFaults(slurm.FaultPlan{
		Script:      s.NodeFaults,
		MTBF:        s.MTBF,
		MTTR:        s.MTTR,
		MaxRequeues: s.MaxRequeues,
		Seed:        s.FaultSeed,
	})
}

// SchedStatsOf computes the scheduler-quality metrics of a run,
// deriving the demand denominator from the scenario's cluster shape
// and each job's requested width.
func SchedStatsOf(s Scenario, res Result) metrics.SchedStats {
	widths := make(map[string]int, len(s.Subs))
	for _, sub := range s.Subs {
		widths[sub.Job.Name] = sub.Job.Nodes * sub.Job.CPUsPerNode()
	}
	return metrics.NewSchedStats(res.Records,
		func(name string) int { return widths[name] }, s.totalCores())
}

// AnalyticsSubmitTime is when the UC1 analytics job enters the queue.
const AnalyticsSubmitTime = 300

// HighPrioSubmitTime is when the UC2 high-priority job arrives.
const HighPrioSubmitTime = 1200

// UC2NestIters sizes the UC2 NEST simulation (~2800 s at Conf. 1).
const UC2NestIters = 2300

// UC2NeuronIters sizes the UC2 CoreNeuron job (~590 s at Conf. 1).
const UC2NeuronIters = 384

// simSpec returns the spec for a simulator name.
func simSpec(name string) apps.Spec {
	switch name {
	case "nest":
		return apps.NEST()
	case "coreneuron":
		return apps.CoreNeuron()
	}
	panic(fmt.Sprintf("workload: unknown simulator %q", name))
}

// anaSpec returns the spec for an analytics name.
func anaSpec(name string) apps.Spec {
	switch name {
	case "pils":
		return apps.Pils()
	case "stream":
		return apps.STREAM()
	}
	panic(fmt.Sprintf("workload: unknown analytics %q", name))
}

// UC1 builds the in-situ analytics scenario: a simulation submitted at
// t=0 and an analytics job at t=AnalyticsSubmitTime, both asking for 2
// nodes (§6.1).
func UC1(simName string, simCfg apps.Config, anaName string, anaCfg apps.Config, traced bool) Scenario {
	return Scenario{
		Name:  fmt.Sprintf("uc1/%s-%s+%s-%s", simName, simCfg, anaName, anaCfg),
		Nodes: 2,
		Trace: traced,
		Subs: []Submission{
			{Job: slurm.Job{
				Name: simName, Spec: simSpec(simName), Cfg: simCfg,
				Nodes: 2, Malleable: true,
			}},
			{At: AnalyticsSubmitTime, Job: slurm.Job{
				Name: anaName, Spec: anaSpec(anaName), Cfg: anaCfg,
				Nodes: 2, Malleable: true,
			}},
		},
	}
}

// UC2 builds the high-priority job scenario (§6.2): a long NEST
// Conf. 1 simulation, then a high-priority CoreNeuron Conf. 1 job
// arriving at t=HighPrioSubmitTime. Under DROM the two jobs
// equipartition the nodes (16/16 CPUs of 32).
func UC2(traced bool) Scenario {
	return Scenario{
		Name:  "uc2/nest+coreneuron-highprio",
		Nodes: 2,
		Trace: traced,
		Subs: []Submission{
			{Job: slurm.Job{
				Name: "nest", Spec: apps.NEST(), Cfg: apps.Config{Ranks: 2, Threads: 16},
				Iters: UC2NestIters, Nodes: 2, Malleable: true,
			}},
			{At: HighPrioSubmitTime, Job: slurm.Job{
				Name: "coreneuron", Spec: apps.CoreNeuron(), Cfg: apps.Config{Ranks: 2, Threads: 16},
				Iters: UC2NeuronIters, Nodes: 2, Priority: 10, Malleable: true,
			}},
		},
	}
}

// Compare runs a scenario under Serial and DROM and returns both.
func Compare(s Scenario) (serial, drom Result) {
	return Run(s, slurm.PolicySerial), Run(s, slurm.PolicyDROM)
}
