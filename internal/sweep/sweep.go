// Package sweep is the parallel experiment engine: it fans a
// (scheduling policy × trace × seed) grid across GOMAXPROCS workers,
// each experiment fully isolated — its own shmem registry, simulation
// engine and controller, created by the workload runner — and
// aggregates the results in grid order, so the output is byte-
// identical regardless of worker count.
//
// The paper's evaluation (§6) is exactly such a grid: policies ×
// workloads × configurations. Independent replays share nothing but
// immutable inputs (the scenario's submission list, the machine
// model, the calibrated application specs — all either read-only or
// copied per run), which makes the sweep embarrassingly parallel.
package sweep

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Grid describes an experiment grid. The cross product of Policies
// and Seeds defines the experiments; each replays the same trace
// shape under one policy.
type Grid struct {
	// Policies are sched policy names (sched.Names() when empty) or
	// per-partition policy-set specs in the sched.ParsePolicySet
	// grammar ("batch=easy,fat=malleable-shrink"; the grid key for
	// such specs is sched=, repeatable).
	Policies []string
	// Seeds selects the synthetic traces (default {1}). Ignored when
	// SWFPath is set (a file is one trace; Seeds collapses to one
	// experiment per policy).
	Seeds []int64
	// Jobs per synthetic trace (default 1000).
	Jobs int
	// Nodes is the cluster size (default 4). Ignored when Cluster is
	// set.
	Nodes int
	// Cluster, when non-empty, runs every experiment on a partitioned
	// heterogeneous cluster (hwmodel.ClusterSpec); the grid key is
	// cluster=<spec> in the ParseCluster grammar.
	Cluster hwmodel.ClusterSpec
	// MeanInterarrival is the synthetic generator's inter-arrival mean
	// in seconds (default 60).
	MeanInterarrival float64
	// CancelRate / FailRate are the synthetic generator's per-job
	// fault probabilities (grid keys cancel= and fail=).
	CancelRate float64
	FailRate   float64
	// Spill enables the cross-partition spillover pass on every
	// experiment (grid key spill=1); SpillAfter / SpillDepth are its
	// eligibility thresholds (spillafter= seconds, spilldepth= jobs).
	Spill      bool
	SpillAfter float64
	SpillDepth int
	// NodeFaults is a deterministic node outage script applied to every
	// experiment (grid key nodefaults=, entries joined with '+' — the
	// grid grammar owns ';'; see slurm.FaultPlan.Script). MTBF/MTTR arm
	// the seeded per-node failure process (grid keys mtbf= and mttr=,
	// virtual seconds); the fault stream is seeded from each
	// experiment's trace seed, so cells stay independent and
	// reproducible. MaxRequeues is the per-job requeue cap (grid key
	// requeue=; 0 = default, negative = none).
	NodeFaults  string
	MTBF        float64
	MTTR        float64
	MaxRequeues int
	// SWFPath replays a Standard Workload Format file instead of the
	// synthetic generator.
	SWFPath string
	// MaxJobs truncates an SWF file trace (0 = all).
	MaxJobs int
	// Stream replays each experiment through the bounded-memory
	// streaming path (aggregate statistics only; no per-job records,
	// no P95s). Required for million-job traces.
	Stream bool
	// KeepJobs retains per-job records in every result (incompatible
	// with Stream); the determinism tests diff them byte for byte.
	KeepJobs bool
	// DebugInvariants enables the controller's per-cycle accounting
	// cross-checks (slow).
	DebugInvariants bool
	// Probe receives one obs.KindCell event per finished experiment
	// (Cell = done so far, Cells = total), serialized under the
	// sweep's emission lock — the live-progress hook. It observes
	// completion order only; result aggregation stays in grid order
	// and byte-identical at any worker count. Not a grid key.
	Probe obs.Probe `json:"-"`
}

func (g Grid) withDefaults() Grid {
	if len(g.Policies) == 0 {
		g.Policies = sched.Names()
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []int64{1}
	}
	if g.SWFPath != "" {
		g.Seeds = g.Seeds[:1]
	}
	if g.Jobs <= 0 {
		g.Jobs = 1000
	}
	if g.Nodes <= 0 {
		g.Nodes = 4
	}
	if g.MeanInterarrival <= 0 {
		g.MeanInterarrival = 60
	}
	return g
}

// Experiment is one cell of the grid.
type Experiment struct {
	Index  int    `json:"index"`
	Policy string `json:"policy"`
	Seed   int64  `json:"seed"`
	Trace  string `json:"trace"`
}

// Result is one finished experiment. Wall-clock fields vary run to
// run; everything else is deterministic.
type Result struct {
	Experiment
	Jobs        int                `json:"jobs"`
	WallSeconds float64            `json:"wall_seconds"`
	Cycles      int64              `json:"sched_cycles"`
	Events      int64              `json:"sim_events"`
	Stats       metrics.SchedStats `json:"stats"`
	// Dropped counts trace records the mapping layer discarded before
	// submission (omitted when the whole trace replayed).
	Dropped metrics.DropStats `json:"dropped,omitzero"`
	// Partitions carries the per-partition split on multi-partition
	// clusters (nil on homogeneous runs).
	Partitions []metrics.PartitionStat `json:"partitions,omitempty"`
	Err        string                  `json:"error,omitempty"`
	// Records holds the per-job records when Grid.KeepJobs is set.
	Records []metrics.JobRecord `json:"-"`
}

// Summary is a finished sweep: results in grid order plus the sweep's
// own wall clock.
type Summary struct {
	Trace       string   `json:"trace"`
	Workers     int      `json:"workers"`
	WallSeconds float64  `json:"wall_seconds"`
	Results     []Result `json:"results"`
}

// Experiments enumerates the grid in deterministic order: seeds
// outer, policies inner (one row per trace, one column per policy,
// like the paper's tables).
func (g Grid) Experiments() []Experiment {
	g = g.withDefaults()
	exps := make([]Experiment, 0, len(g.Seeds)*len(g.Policies))
	for _, seed := range g.Seeds {
		for _, pol := range g.Policies {
			exps = append(exps, Experiment{
				Index:  len(exps),
				Policy: pol,
				Seed:   seed,
				Trace:  g.traceName(seed),
			})
		}
	}
	return exps
}

// shapeName renders the cluster part of a trace label.
func (g Grid) shapeName() string {
	if len(g.Cluster.Partitions) > 0 {
		return fmt.Sprintf("cluster=%s", g.Cluster)
	}
	return fmt.Sprintf("nodes=%d", g.Nodes)
}

// faultName renders the fault-rate part of a trace label ("" when the
// generator is clean).
func (g Grid) faultName() string {
	if g.CancelRate <= 0 && g.FailRate <= 0 {
		return ""
	}
	return fmt.Sprintf(" cancel=%g fail=%g", g.CancelRate, g.FailRate)
}

// spillName renders the spillover part of a trace label ("" when the
// pass is off).
func (g Grid) spillName() string {
	if !g.Spill {
		return ""
	}
	s := " spill=1"
	if g.SpillAfter > 0 {
		s += fmt.Sprintf(" spillafter=%g", g.SpillAfter)
	}
	if g.SpillDepth > 0 {
		s += fmt.Sprintf(" spilldepth=%d", g.SpillDepth)
	}
	return s
}

// nodeFaultName renders the node-fault part of a trace label ("" when
// the fault model is off).
func (g Grid) nodeFaultName() string {
	if g.NodeFaults == "" && g.MTBF <= 0 {
		return ""
	}
	var s string
	if g.NodeFaults != "" {
		s += fmt.Sprintf(" nodefaults=%s", g.NodeFaults)
	}
	if g.MTBF > 0 {
		s += fmt.Sprintf(" mtbf=%g mttr=%g", g.MTBF, g.MTTR)
	}
	if g.MaxRequeues != 0 {
		s += fmt.Sprintf(" requeue=%d", g.MaxRequeues)
	}
	return s
}

func (g Grid) traceName(seed int64) string {
	if g.SWFPath != "" {
		return fmt.Sprintf("swf:%s", g.SWFPath)
	}
	return fmt.Sprintf("synthetic seed=%d jobs=%d %s%s%s%s",
		seed, g.Jobs, g.shapeName(), g.faultName(), g.spillName(), g.nodeFaultName())
}

// gridName describes the whole grid (the summary-level label; the
// per-result Trace fields carry the individual seeds).
func (g Grid) gridName() string {
	if g.SWFPath != "" {
		return fmt.Sprintf("swf:%s", g.SWFPath)
	}
	seeds := make([]string, len(g.Seeds))
	for i, s := range g.Seeds {
		seeds[i] = strconv.FormatInt(s, 10)
	}
	return fmt.Sprintf("synthetic seeds=%s jobs=%d %s%s%s%s",
		strings.Join(seeds, ","), g.Jobs, g.shapeName(), g.faultName(), g.spillName(), g.nodeFaultName())
}

// Run executes the grid on the given number of workers (<= 0 means
// GOMAXPROCS). Experiments are handed to workers through a channel
// and each runs in complete isolation; results land in a slice
// indexed by grid position, so the summary is independent of worker
// count and scheduling order.
func Run(g Grid, workers int) (Summary, error) {
	if err := hwmodel.CheckNodes(g.Nodes); err != nil {
		return Summary{}, fmt.Errorf("sweep: %w", err)
	}
	g = g.withDefaults()
	if g.Stream && g.KeepJobs {
		return Summary{}, fmt.Errorf("sweep: KeepJobs requires the materialized path (Stream=false)")
	}
	exps := g.Experiments()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}

	// Materialize each distinct trace once and share it read-only:
	// the runner copies every job before submitting, so concurrent
	// experiments on one scenario never race. Streamed experiments
	// build their own source instead (sources are stateful).
	scenarios := make(map[int64]workload.Scenario, len(g.Seeds))
	if !g.Stream {
		for _, seed := range g.Seeds {
			sc, err := g.scenario(seed)
			if err != nil {
				return Summary{}, err
			}
			scenarios[seed] = sc
		}
	}

	results := make([]Result, len(exps))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	// Cell-completion probe state: done counts completions across
	// workers, and emitMu serializes emissions so consumers see a
	// monotonic done/total sequence without locking of their own.
	var emitMu sync.Mutex
	done := 0
	cellDone := func() {
		if g.Probe == nil {
			return
		}
		emitMu.Lock()
		done++
		g.Probe.Emit(obs.Event{Kind: obs.KindCell, Cell: done, Cells: len(exps)})
		emitMu.Unlock()
	}
	start := time.Now() //simvet:wallclock wall-time meta only; WallSeconds is documented nondeterministic
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i] = g.runOne(exps[i], scenarios)
				cellDone()
			}
		}()
	}
	for i := range exps {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	sum := Summary{
		Trace:       g.gridName(),
		Workers:     workers,
		WallSeconds: time.Since(start).Seconds(),
		Results:     results,
	}
	for _, r := range results {
		if r.Err != "" {
			return sum, fmt.Errorf("sweep: experiment %d (%s seed %d): %s", r.Index, r.Policy, r.Seed, r.Err)
		}
	}
	return sum, nil
}

// scenario materializes the trace for one seed.
func (g Grid) scenario(seed int64) (workload.Scenario, error) {
	if g.SWFPath != "" {
		return scenarioFromFile(g.SWFPath, workload.SWFOptions{
			Nodes: g.Nodes, Cluster: g.Cluster, MaxJobs: g.MaxJobs,
		})
	}
	return workload.SyntheticSWFScenario(g.synthetic(seed))
}

// synthetic parameterizes the generator for one seed.
func (g Grid) synthetic(seed int64) workload.SyntheticSWF {
	return workload.SyntheticSWF{
		Seed: seed, Jobs: g.Jobs, Nodes: g.Nodes, MeanInterarrival: g.MeanInterarrival,
		Cluster: g.Cluster, CancelRate: g.CancelRate, FailRate: g.FailRate,
	}
}

// spillInto copies the grid's spillover knobs onto a scenario.
func (g Grid) spillInto(sc *workload.Scenario) {
	sc.Spill = g.Spill
	sc.SpillAfter = g.SpillAfter
	sc.SpillDepth = g.SpillDepth
}

// faultsInto copies the grid's node-fault knobs onto a scenario. The
// fault stream is seeded from the experiment's trace seed so each cell
// is reproducible in isolation.
func (g Grid) faultsInto(sc *workload.Scenario, seed int64) {
	sc.NodeFaults = g.NodeFaults
	sc.MTBF = g.MTBF
	sc.MTTR = g.MTTR
	sc.MaxRequeues = g.MaxRequeues
	sc.FaultSeed = seed
}

// runOne executes one experiment in isolation. The policy cell may be
// a bare policy name or a per-partition policy-set spec; either way
// each experiment instantiates its own policy instances.
func (g Grid) runOne(e Experiment, scenarios map[int64]workload.Scenario) Result {
	out := Result{Experiment: e}
	ps, err := sched.ParsePolicySet(e.Policy)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	t0 := time.Now() //simvet:wallclock wall-time meta only; WallSeconds is documented nondeterministic
	var res workload.Result
	var stats metrics.SchedStats
	if g.Stream {
		src, err := g.source(e.Seed)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		base := workload.Scenario{Nodes: g.Nodes, Cluster: g.Cluster, DebugInvariants: g.DebugInvariants}
		g.spillInto(&base)
		g.faultsInto(&base, e.Seed)
		res = workload.RunSchedStreamSet(base, src, ps)
		stats = workload.SchedStatsOfStream(res)
	} else {
		sc := scenarios[e.Seed]
		sc.DebugInvariants = g.DebugInvariants
		g.spillInto(&sc)
		g.faultsInto(&sc, e.Seed)
		res = workload.RunSchedSet(sc, ps)
		stats = workload.SchedStatsOf(sc, res)
	}
	out.WallSeconds = time.Since(t0).Seconds()
	if res.Err != nil {
		out.Err = res.Err.Error()
		return out
	}
	out.Jobs = res.Records.Count()
	out.Cycles = res.SchedCycles
	out.Events = res.Events
	out.Stats = stats
	out.Dropped = res.Records.Dropped
	if len(g.Cluster.Partitions) > 1 {
		out.Partitions = res.Records.PartitionStats()
	}
	if g.KeepJobs {
		out.Records = append([]metrics.JobRecord(nil), res.Records.Jobs...)
	}
	return out
}

// source builds a fresh streaming source for one experiment.
func (g Grid) source(seed int64) (workload.SubmissionSource, error) {
	if g.SWFPath != "" {
		return sourceFromFile(g.SWFPath, workload.SWFOptions{
			Nodes: g.Nodes, Cluster: g.Cluster, MaxJobs: g.MaxJobs,
		})
	}
	return g.synthetic(seed).Source(), nil
}
