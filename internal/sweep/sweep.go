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
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Grid describes an experiment grid: a workload.Spec, whose Policies
// and Seeds are the axes and whose every (policy, seed) cell is one
// experiment replaying the same trace shape under one policy. It is an
// alias only so that the benchmark's Grid composite literals keep
// compiling: the benchmark half of ROADMAP's "the program says where
// its time goes" builds specs instead and drops it.
type Grid = workload.Spec

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

// Run executes the grid on the given number of workers (<= 0 means
// GOMAXPROCS). Experiments are handed to workers through a channel
// and each runs in complete isolation; results land in a slice
// indexed by grid position, so the summary is independent of worker
// count and scheduling order.
func Run(g Grid, workers int) (Summary, error) {
	if err := g.Validate(); err != nil {
		return Summary{}, fmt.Errorf("sweep: %w", err)
	}
	if g.Stream && g.KeepJobs {
		return Summary{}, fmt.Errorf("sweep: KeepJobs requires the materialized path (Stream=false)")
	}
	cells := g.Cells()
	exps := make([]Experiment, len(cells))
	for i, c := range cells {
		exps[i] = Experiment{Index: i, Policy: c.Policies[0], Seed: c.Seeds[0], Trace: c.String()}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}

	// Materialize each distinct trace once and share it read-only:
	// the runner copies every job before submitting, so concurrent
	// experiments on one scenario never race. Streamed experiments
	// open their own source instead (sources are stateful).
	scenarios := make(map[int64]workload.Scenario)
	for _, c := range cells {
		if _, ok := scenarios[c.Seeds[0]]; ok || g.Stream {
			continue
		}
		sc, err := c.Scenario()
		if err != nil {
			return Summary{}, err
		}
		scenarios[c.Seeds[0]] = sc
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
				results[i] = runOne(cells[i], exps[i], scenarios[exps[i].Seed], g.KeepJobs)
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
		Trace:       g.String(),
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

// runOne executes one experiment in isolation on its own session:
// over sc, the seed's shared trace, or a fresh stream. The policy cell
// may be a bare policy name or a per-partition policy-set spec; either
// way each experiment instantiates its own policy instances.
func runOne(c workload.Spec, e Experiment, sc workload.Scenario, keepJobs bool) Result {
	out := Result{Experiment: e}
	t0 := time.Now() //simvet:wallclock wall-time meta only; WallSeconds is documented nondeterministic
	sess, err := c.Open(sc, nil)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	res := sess.Run()
	stats := workload.SchedStatsOf(sess.Scenario(), res)
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
	if len(c.Cluster.Partitions) > 1 {
		out.Partitions = res.Records.PartitionStats()
	}
	if keepJobs {
		out.Records = append([]metrics.JobRecord(nil), res.Records.Jobs...)
	}
	return out
}
