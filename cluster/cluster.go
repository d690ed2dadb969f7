// Package cluster is the public simulation API: it exposes the
// DROM-enabled SLURM cluster simulator used to reproduce the paper's
// evaluation (§6). Users describe jobs (application model +
// configuration + submit time), pick a scheduling policy, and get the
// paper's system metrics back: total run time, per-job response times,
// averages, and optionally per-thread traces.
package cluster

import (
	"io"

	"repro/internal/apps"
	"repro/internal/djsb"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slurm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config is an application configuration (MPI ranks × threads/rank).
type Config = apps.Config

// AppSpec is a calibrated application performance model.
type AppSpec = apps.Spec

// Application model constructors (Table 1 applications).
var (
	// NEST returns the NEST neuro-simulator model.
	NEST = apps.NEST
	// CoreNeuron returns the CoreNeuron simulator model.
	CoreNeuron = apps.CoreNeuron
	// Pils returns the compute-bound synthetic analytics model.
	Pils = apps.Pils
	// STREAM returns the memory-bandwidth benchmark model.
	STREAM = apps.STREAM
)

// Table1 returns the paper's configurations for an application name
// ("nest", "coreneuron", "pils", "stream").
func Table1(app string) []Config { return apps.Table1(app) }

// Job is one submission: name, model, configuration, node count,
// priority and malleability.
type Job = slurm.Job

// Policy selects the scheduling behaviour.
type Policy = slurm.Policy

// Scheduling policies.
const (
	// Serial is the baseline: exclusive nodes, jobs wait in queue.
	Serial = slurm.PolicySerial
	// DROM co-allocates jobs by repartitioning CPUs through DROM.
	DROM = slurm.PolicyDROM
	// Oversubscribe co-allocates with overlapping masks (the
	// related-work baseline DROM beats).
	Oversubscribe = slurm.PolicyOversubscribe
	// Preempt checkpoints and requeues lower-priority jobs (the other
	// §6.2 baseline, with checkpoint/restart costs).
	Preempt = slurm.PolicyPreempt
)

// Submission schedules a job at a virtual time.
type Submission = workload.Submission

// Scenario is a workload description.
type Scenario = workload.Scenario

// Partitioned heterogeneous clusters (hwmodel): Scenario.Cluster,
// SWFOptions.Cluster and SyntheticSWF.Cluster accept a ClusterSpec;
// jobs target a partition by name through Job.Partition.

// ClusterSpec is a partitioned cluster layout: named partitions, each
// a homogeneous pool of one machine type.
type ClusterSpec = hwmodel.ClusterSpec

// MachinePartition is one named homogeneous partition of a cluster.
type MachinePartition = hwmodel.Partition

// ParseCluster parses the compact cluster-spec grammar, e.g.
// "batch:4xmn3,fat:2xfat" or the "hetero" preset shorthand.
func ParseCluster(spec string) (ClusterSpec, error) { return hwmodel.ParseCluster(spec) }

// HeteroMN3 returns the bundled 2-partition heterogeneous preset:
// 4 MN3 nodes ("batch") plus 2 fat nodes ("fat").
func HeteroMN3() ClusterSpec { return hwmodel.HeteroMN3() }

// PartitionStat is one partition's slice of a run's metrics.
type PartitionStat = metrics.PartitionStat

// Result is one scenario execution: records and optional traces.
type Result = workload.Result

// JobRecord is one job's lifecycle (submit/start/end).
type JobRecord = metrics.JobRecord

// Workload aggregates job records (total run time, average response).
type Workload = metrics.Workload

// Tracer records per-thread execution segments.
type Tracer = trace.Tracer

// Probe receives scheduler observability events (see internal/obs).
// Attach one via Scenario.Probe; a nil probe costs one nil check per
// instrumentation point.
type Probe = obs.Probe

// ObsEvent is one observability event delivered to a Probe.
type ObsEvent = obs.Event

// Machine describes a node type (sockets, cores, frequency, memory
// bandwidth). The zero value in a Scenario selects MN3.
type Machine = hwmodel.Machine

// MN3 returns the MareNostrum III node model of the paper (2 sockets ×
// 8 cores at 2.6 GHz).
func MN3() Machine { return hwmodel.MN3() }

// Run executes a scenario under the given policy on a 2-socket,
// 16-core-per-node MN3-like cluster.
func Run(s Scenario, p Policy) Result { return workload.Run(s, p) }

// Compare runs a scenario under Serial and DROM.
func Compare(s Scenario) (serial, drom Result) { return workload.Compare(s) }

// UC1 builds the paper's in-situ analytics scenario (§6.1): a
// simulation ("nest" or "coreneuron") submitted at t=0 and an
// analytics job ("pils" or "stream") at t=300.
func UC1(sim string, simCfg Config, ana string, anaCfg Config, traced bool) Scenario {
	return workload.UC1(sim, simCfg, ana, anaCfg, traced)
}

// UC2 builds the paper's high-priority job scenario (§6.2).
func UC2(traced bool) Scenario { return workload.UC2(traced) }

// Gain returns the relative improvement of b over a: (a-b)/a.
func Gain(a, b float64) float64 { return metrics.Gain(a, b) }

// DJSBParams configures a randomized DJSB-style job stream (after the
// Dynamic Job Scheduling Benchmark the paper cites as [26]).
type DJSBParams = djsb.Params

// DJSBReport summarizes a stream run (makespan, response, slowdown).
type DJSBReport = djsb.Report

// DJSBMix is one entry of the application mixture.
type DJSBMix = djsb.AppMix

// GenerateDJSB builds a reproducible randomized scenario.
func GenerateDJSB(p DJSBParams) (Scenario, error) { return djsb.Generate(p) }

// RunDJSB generates and runs a stream under a policy.
func RunDJSB(p DJSBParams, pol Policy) (DJSBReport, error) { return djsb.Run(p, pol) }

// SummarizeDJSB computes the stream report from any finished result.
func SummarizeDJSB(res Result) DJSBReport { return djsb.Summarize(res) }

// ---------------------------------------------------------------------
// Scheduling subsystem (internal/sched) and SWF-scale replay
// ---------------------------------------------------------------------

// SchedPolicy is a pluggable queue-ordering/admission policy: fcfs,
// easy (backfill with head reservation), malleable-shrink (shrink
// running jobs through DROM to admit the head) or malleable-expand
// (additionally re-grow jobs once the queue drains).
type SchedPolicy = sched.Policy

// NewSchedPolicy resolves a policy by name (see sched.New for the
// accepted aliases).
func NewSchedPolicy(name string) (SchedPolicy, error) { return sched.New(name) }

// SchedPolicyNames lists the canonical policy names.
func SchedPolicyNames() []string { return sched.Names() }

// SchedPolicySet assigns a policy to each partition, parsed from the
// `-sched` grammar: a bare policy name ("easy", the set's default)
// and/or partition=policy pairs ("batch=easy,fat=malleable-shrink").
type SchedPolicySet = sched.PolicySet

// ParseSchedPolicySet parses the policy-set grammar.
func ParseSchedPolicySet(spec string) (SchedPolicySet, error) { return sched.ParsePolicySet(spec) }

// RunSched executes a scenario under a SchedPolicy; every
// malleability action flows through the real DROM protocol.
func RunSched(s Scenario, p SchedPolicy) Result { return workload.RunSched(s, p) }

// RunSchedSet executes a scenario under a per-partition policy set:
// every partition gets a fresh instance of the policy the set assigns
// it.
func RunSchedSet(s Scenario, ps SchedPolicySet) Result { return workload.RunSchedSet(s, ps) }

// SchedStats are the scheduler-quality metrics (makespan, waits,
// bounded slowdown, utilization).
type SchedStats = metrics.SchedStats

// SchedStatsOf computes the metrics of a finished run.
func SchedStatsOf(s Scenario, res Result) SchedStats { return workload.SchedStatsOf(s, res) }

// SWFJob is one Standard Workload Format record.
type SWFJob = workload.SWFJob

// SWFOptions maps a trace onto the simulated cluster.
type SWFOptions = workload.SWFOptions

// ParseSWF reads a Standard Workload Format trace.
func ParseSWF(r io.Reader) ([]SWFJob, error) { return workload.ParseSWF(r) }

// SWFScenario converts trace records into a replayable scenario,
// returning the number of unusable records skipped.
func SWFScenario(jobs []SWFJob, o SWFOptions) (Scenario, int, error) {
	return workload.SWFScenario(jobs, o)
}

// SyntheticSWF parameterizes the seeded trace generator.
type SyntheticSWF = workload.SyntheticSWF

// SyntheticSWFScenario generates a reproducible thousand-job-scale
// workload.
func SyntheticSWFScenario(p SyntheticSWF) (Scenario, error) {
	return workload.SyntheticSWFScenario(p)
}

// SubmissionSource yields submissions in nondecreasing submit order
// (streaming replay input).
type SubmissionSource = workload.SubmissionSource

// NewSWFReaderSource streams an SWF trace file as submissions without
// materializing it.
func NewSWFReaderSource(r io.Reader, o SWFOptions) SubmissionSource {
	return workload.NewSWFReaderSource(r, o)
}

// ParseSWFFunc streams an SWF trace record by record.
func ParseSWFFunc(r io.Reader, fn func(SWFJob) error) error {
	return workload.ParseSWFFunc(r, fn)
}

// RunSchedStream replays a submission stream under a SchedPolicy in
// bounded memory: job records are folded into aggregate statistics as
// they complete (no per-job records, no percentiles). For a stream in
// submit order the scheduling decisions are identical to
// materializing it and calling RunSched; an out-of-order record is
// submitted at the stream position instead of being sorted into place.
func RunSchedStream(base Scenario, src SubmissionSource, p SchedPolicy) Result {
	return workload.RunSchedStream(base, src, p)
}

// RunSchedStreamSet is RunSchedStream under a per-partition policy
// set.
func RunSchedStreamSet(base Scenario, src SubmissionSource, ps SchedPolicySet) Result {
	return workload.RunSchedStreamSet(base, src, ps)
}

// SchedStatsOfStream computes the metrics of a streamed run.
func SchedStatsOfStream(res Result) SchedStats { return workload.SchedStatsOfStream(res) }
