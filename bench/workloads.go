package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// runner is one workload. The harness calls setup (several times, to
// time it), then trial again and again until the run's seconds are
// spent, then close. A traced run passes a traceCtx: setup and trial
// then record spans and install the benchmark's probe.
type runner interface {
	setup(tc *traceCtx) error
	trial(tc *traceCtx) (trialOut, error)
	close()
}

// trialOut is what one trial measured and put out.
type trialOut struct {
	// ops is the number of operations the trial attempted (simulated
	// jobs, scenario runs, HTTP requests) and failed how many of them
	// went wrong.
	ops, failed int64
	// wall is the timed region in seconds; opsPerS the throughput it
	// achieved; latMs the latency samples it contributes to
	// latency_p50_ms (its own wall time, or one sample per what-if).
	wall    float64
	opsPerS float64
	latMs   []float64
	// obs holds the outputs to verify, nil when the trial's outputs are
	// not repeatable (later schedd rounds run on a state that earlier
	// rounds mutated).
	obs *observed
	// problems lists violated invariants.
	problems []string
	// events and iterations count the simulation events processed and
	// the application iterations the replayed jobs planned, where the
	// harness can see them; lazyJobs the jobs generated and mapped
	// inside the timed region; requests the HTTP requests by kind.
	events, iterations, lazyJobs int64
	requests                     map[string]int64
	// busy is the time the in-situ shares of a traced trial refer to:
	// the wall time of the calls the probe was installed on (the serial
	// cell replays of a sweep, the summed request times of the service).
	// statsS is the part of it spent computing statistics.
	busy, statsS float64
}

// traceCtx carries the tracing state of a traced run: the span
// recorder, the span new spans hang under, and the probe.
type traceCtx struct {
	tr     *tracer
	parent int
	probe  *cycleProbe
}

// begin opens a span under the current one and end closes it; both
// do nothing on a nil context, so the same code runs untraced.
func (tc *traceCtx) begin(name, layer string) int {
	if tc == nil {
		return 0
	}
	return tc.tr.begin(tc.parent, name, layer)
}

func (tc *traceCtx) end(id int) {
	if tc != nil {
		tc.tr.end(id)
	}
}

// span runs fn inside a span; spans begun and cycles the probe sees
// meanwhile become its children.
func (tc *traceCtx) span(name, layer string, fn func()) {
	if tc == nil {
		fn()
		return
	}
	id := tc.begin(name, layer)
	prev := tc.parent
	tc.parent = id
	fn()
	tc.parent = prev
	tc.end(id)
}

// workloadDefs lists the workloads in the order the suite runs them.
// The reasons each exists are in BENCHMARK.json and README.md.
var workloadDefs = []struct {
	name string
	new  func(e *env) runner
}{
	{"stream_light", func(e *env) runner { return &streamLight{e: e} }},
	{"backlog_hetero", func(e *env) runner { return &backlogHetero{e: e} }},
	{"sweep_grid", func(e *env) runner { return &sweepGrid{e: e} }},
	{"schedd_mixed", func(e *env) runner { return &scheddMixed{e: e} }},
	{"paper_uc", func(e *env) runner { return &paperUC{e: e} }},
}

func newRunner(name string, e *env) (runner, error) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d.new(e), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// observedOf reduces scheduler statistics to the checked outputs.
func observedOf(st metrics.SchedStats) *observed {
	return &observed{
		Jobs: st.Jobs, MeanWaitS: st.MeanWait, MakespanS: st.Makespan,
		Spilled: st.Spilled, Requeues: st.Requeues, NodeFailed: st.NodeFailed,
		Cancelled: st.Cancelled, Failed: st.Failed,
	}
}

// digestLines hashes lines after sorting them, so the digest does not
// depend on the order results were collected in.
func digestLines(lines []string) string {
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(h[:])[:16]
}

// recordsDigest covers every job of a materialized run: name,
// partition, outcome and start time to 1 ms.
func recordsDigest(recs []metrics.JobRecord) string {
	lines := make([]string, len(recs))
	for i, j := range recs {
		lines[i] = fmt.Sprintf("%s %s %s %.3f", j.Name, j.Partition, j.Outcome, j.Start)
	}
	return digestLines(lines)
}

// replayProblems checks what must hold for any seed: the replay
// finished without error and accounted for every job of the trace.
func replayProblems(res workload.Result, st metrics.SchedStats, wantJobs int) []string {
	var out []string
	if res.Err != nil {
		out = append(out, fmt.Sprintf("replay error: %v", res.Err))
	}
	if st.Jobs != wantJobs {
		out = append(out, fmt.Sprintf("replay accounted for %d jobs, trace has %d", st.Jobs, wantJobs))
	}
	if st.MeanWait < 0 || st.Makespan <= 0 {
		out = append(out, fmt.Sprintf("implausible statistics: mean wait %v, makespan %v", st.MeanWait, st.Makespan))
	}
	return out
}

// replayOut fills the trialOut fields every replay trial shares.
func replayOut(res workload.Result, st metrics.SchedStats, wall, stats time.Duration, wantJobs int, iterations int64) trialOut {
	out := trialOut{
		ops:        int64(wantJobs),
		wall:       wall.Seconds(),
		opsPerS:    float64(wantJobs) / wall.Seconds(),
		latMs:      []float64{wall.Seconds() * 1e3},
		obs:        observedOf(st),
		problems:   replayProblems(res, st, wantJobs),
		events:     res.Events,
		iterations: iterations,
		busy:       wall.Seconds(),
		statsS:     stats.Seconds(),
	}
	if len(out.problems) > 0 {
		out.failed = out.ops
	}
	return out
}

// warmupJobs is the length of the warm-up replays that stream_light
// and sweep_grid run during set-up.
const warmupJobs = 2000

// streamLight streams a long light-load trace through the bounded-
// memory replay driver; the trace is generated lazily inside the
// timed region.
type streamLight struct {
	e          *env
	gen        workload.SyntheticSWF
	jobs       int
	iterations int64
}

func (s *streamLight) setup(tc *traceCtx) error {
	s.gen = workload.SyntheticSWF{Seed: s.e.seed, Jobs: s.e.sz.StreamJobs, Nodes: 4, MeanInterarrival: 60}
	s.jobs, s.iterations = 0, 0
	var err error
	// A dry pass over the lazy source: the tallies the replay must
	// reproduce. Nothing is retained, as in the replay itself.
	tc.span("generate+map", "workload", func() {
		src := s.gen.Source()
		for {
			sub, ok, nerr := src.Next()
			if nerr != nil || !ok {
				err = nerr
				return
			}
			s.jobs++
			s.iterations += int64(sub.Job.Iters)
		}
	})
	if err != nil {
		return err
	}
	// A short replay of the head of the trace: first-use costs (page
	// faults, heap growth) belong to set-up, not to the first trial.
	warm := s.gen
	warm.Jobs = min(warm.Jobs, warmupJobs)
	policy, err := sched.New("easy")
	if err != nil {
		return err
	}
	var res workload.Result
	tc.span("warm-up", "workload", func() { res = workload.RunSchedStream(workload.Scenario{Nodes: 4}, warm.Source(), policy) })
	return res.Err
}

func (s *streamLight) trial(tc *traceCtx) (trialOut, error) {
	policy, err := sched.New("easy")
	if err != nil {
		return trialOut{}, err
	}
	sc := workload.Scenario{Nodes: 4}
	if tc != nil {
		sc.Probe = tc.probe
	}
	var res workload.Result
	var st metrics.SchedStats
	t0 := time.Now()
	tc.span("replay", "workload", func() { res = workload.RunSchedStream(sc, s.gen.Source(), policy) })
	t1 := time.Now()
	tc.span("stats", "metrics", func() { st = workload.SchedStatsOfStream(res) })
	out := replayOut(res, st, time.Since(t0), time.Since(t1), s.jobs, s.iterations)
	out.lazyJobs = int64(s.jobs)
	return out, nil
}

func (s *streamLight) close() {}

// backlogFaults are the scripted outage windows of backlog_hetero
// (those of BenchmarkSchedNodeFaults, without its MTBF stream, which
// tips the cluster into saturation).
const backlogFaults = "node0:down@5000..8000+node4:down@20000..26000+node2:drain@40000..60000"

// backlogTraceSeed fixes the base trace of the backlog regime, and
// backlogJitter is how far a run's seed moves each submission in time.
// Under a standing backlog the cost of a job depends on the queue depth
// it meets, and between generator seeds the mean depth differs by
// ±30 %: the seed, not the code, would be the largest term in every
// figure. So the load profile is pinned, and the seed redraws the
// arrival order within it: other decisions, the same regime (mean wait
// within ±7 %).
const (
	backlogTraceSeed = 1
	backlogJitter    = 30 // virtual seconds, either way
)

// backlogTrace generates the backlog regime's trace for a seed: the
// base trace with every submit time moved by a seeded offset, in
// submit order again.
func backlogTrace(seed int64, jobs int) (trace []workload.SWFJob, cluster hwmodel.ClusterSpec) {
	gen := workload.SyntheticSWF{
		Seed: backlogTraceSeed, Jobs: jobs, MeanInterarrival: 20,
		Cluster: hwmodel.HeteroMN3(), CancelRate: 0.05, FailRate: 0.05,
	}
	trace = gen.Generate()
	r := rand.New(rand.NewSource(seed))
	for i := range trace {
		trace[i].Submit = math.Max(0, math.Round(trace[i].Submit+backlogJitter*(2*r.Float64()-1)))
	}
	sort.SliceStable(trace, func(a, b int) bool { return trace[a].Submit < trace[b].Submit })
	return trace, gen.Cluster
}

// backlogScenario takes a trace in for real — generate, format as SWF
// text, parse it back, map it onto the cluster — and arms spillover,
// the outage windows and a requeue cap of 1.
func backlogScenario(tc *traceCtx, seed int64, jobs int) (workload.Scenario, error) {
	var trace, parsed []workload.SWFJob
	var cluster hwmodel.ClusterSpec
	var text string
	var sc workload.Scenario
	var err error
	tc.span("generate", "workload", func() { trace, cluster = backlogTrace(seed, jobs) })
	tc.span("format", "workload", func() { text = workload.FormatSWF(trace) })
	tc.span("parse", "workload", func() { parsed, err = workload.ParseSWF(strings.NewReader(text)) })
	if err != nil {
		return sc, err
	}
	tc.span("map", "workload", func() {
		sc, _, err = workload.SWFScenario(parsed, workload.SWFOptions{Cluster: cluster})
	})
	sc.Spill = true
	sc.NodeFaults = backlogFaults
	sc.MaxRequeues = 1
	return sc, err
}

// plannedIterations sums the application iterations a scenario's jobs
// plan to run.
func plannedIterations(sc workload.Scenario) int64 {
	var n int64
	for i := range sc.Subs {
		n += int64(sc.Subs[i].Job.Iters)
	}
	return n
}

// backlogHetero replays a faulty trace on the heterogeneous cluster
// under a standing backlog: the controller and policy workload.
type backlogHetero struct {
	e          *env
	sc         workload.Scenario
	policies   sched.PolicySet
	iterations int64
}

func (b *backlogHetero) setup(tc *traceCtx) error {
	var err error
	if b.policies, err = sched.ParsePolicySet("batch=easy,fat=malleable-expand"); err != nil {
		return err
	}
	if b.sc, err = backlogScenario(tc, b.e.seed, b.e.sz.BacklogJobs); err != nil {
		return err
	}
	b.iterations = plannedIterations(b.sc)
	return nil
}

func (b *backlogHetero) trial(tc *traceCtx) (trialOut, error) {
	sc := b.sc
	if tc != nil {
		sc.Probe = tc.probe
	}
	var res workload.Result
	var st metrics.SchedStats
	t0 := time.Now()
	tc.span("replay", "workload", func() { res = workload.RunSchedSet(sc, b.policies) })
	t1 := time.Now()
	tc.span("stats", "metrics", func() { st = workload.SchedStatsOf(sc, res) })
	out := replayOut(res, st, time.Since(t0), time.Since(t1), len(sc.Subs), b.iterations)
	out.obs.Digest = recordsDigest(res.Records.Jobs)
	return out, nil
}

func (b *backlogHetero) close() {}

// sweepGrid runs a (4 policies × 2 seeds) grid on W workers: the only
// workload with more than one simulation goroutine.
type sweepGrid struct {
	e         *env
	grid      sweep.Grid
	scenarios map[int64]workload.Scenario
}

func (s *sweepGrid) setup(tc *traceCtx) error {
	s.grid = sweep.Grid{
		Policies: sched.Names(), Seeds: []int64{s.e.seed, s.e.seed + 1},
		Jobs: s.e.sz.SweepJobs, Nodes: 4,
	}
	// The same two scenarios Run builds for itself, built here too:
	// the traced run replays every cell on them under the probe and
	// holds the sweep's answers against those replays.
	s.scenarios = make(map[int64]workload.Scenario)
	var err error
	tc.span("scenarios", "workload", func() {
		for _, seed := range s.grid.Seeds {
			var sc workload.Scenario
			sc, err = workload.SyntheticSWFScenario(workload.SyntheticSWF{Seed: seed, Jobs: s.grid.Jobs, Nodes: 4})
			if err != nil {
				return
			}
			s.scenarios[seed] = sc
		}
	})
	if err != nil {
		return err
	}
	// A small sweep on the same workers, for the same reason as
	// stream_light's warm-up replay.
	warm := s.grid
	warm.Jobs = min(warm.Jobs, warmupJobs/len(warm.Policies))
	tc.span("warm-up", "sweep", func() { _, err = sweep.Run(warm, s.e.w) })
	return err
}

// cellLine is one cell's contribution to the sweep digest.
func cellLine(policy string, seed int64, st metrics.SchedStats) string {
	return fmt.Sprintf("%s %d %d %.6f %.6f", policy, seed, st.Jobs, st.MeanWait, st.Makespan)
}

func (s *sweepGrid) trial(tc *traceCtx) (trialOut, error) {
	var sum sweep.Summary
	var err error
	tc.span("sweep.Run", "sweep", func() { sum, err = sweep.Run(s.grid, s.e.w) })
	if err != nil {
		return trialOut{}, err
	}
	out := trialOut{wall: sum.WallSeconds, latMs: []float64{sum.WallSeconds * 1e3}, obs: &observed{}}
	lines := make([]string, 0, len(sum.Results))
	for _, r := range sum.Results {
		out.ops += int64(r.Jobs)
		out.events += r.Events
		out.obs.Jobs += r.Jobs
		out.obs.MeanWaitS += r.Stats.MeanWait / float64(len(sum.Results))
		out.obs.MakespanS = max(out.obs.MakespanS, r.Stats.Makespan)
		lines = append(lines, cellLine(r.Policy, r.Seed, r.Stats))
		if r.Jobs != s.grid.Jobs {
			out.problems = append(out.problems, fmt.Sprintf("cell %s/%d replayed %d jobs, want %d", r.Policy, r.Seed, r.Jobs, s.grid.Jobs))
		}
	}
	out.obs.Digest = digestLines(lines)
	out.opsPerS = float64(out.ops) / out.wall
	for _, sc := range s.scenarios {
		out.iterations += plannedIterations(sc) * int64(len(s.grid.Policies))
	}
	out.busy = out.wall
	if tc != nil {
		out.busy, err = s.replayCells(tc, sum, &out)
	}
	if len(out.problems) > 0 {
		out.failed = out.ops
	}
	return out, err
}

// replayCells is the traced run's attribution pass: sweep.Run cannot
// be probed from outside, so every cell is replayed once more through
// the public replay call, serially, under the probe. Each replay must
// agree with the cell the sweep reported. Returns the wall time of the
// replays, which the probe's shares refer to.
func (s *sweepGrid) replayCells(tc *traceCtx, sum sweep.Summary, out *trialOut) (float64, error) {
	var wall float64
	for _, r := range sum.Results {
		ps, err := sched.ParsePolicySet(r.Policy)
		if err != nil {
			return 0, err
		}
		sc := s.scenarios[r.Seed]
		sc.Probe = tc.probe
		var res workload.Result
		t0 := time.Now()
		tc.span("cell-replay", "workload", func() { res = workload.RunSchedSet(sc, ps) })
		wall += time.Since(t0).Seconds()
		t1 := time.Now()
		st := workload.SchedStatsOf(sc, res)
		out.statsS += time.Since(t1).Seconds()
		if got, want := cellLine(r.Policy, r.Seed, st), cellLine(r.Policy, r.Seed, r.Stats); got != want || res.Err != nil {
			out.problems = append(out.problems, fmt.Sprintf("cell replay %q departs from the sweep's %q (err %v)", got, want, res.Err))
		}
	}
	return wall, nil
}

func (s *sweepGrid) close() {}
