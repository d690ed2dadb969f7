package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// setupRepeats is how often a run sets its workload up: setup_s is the
// median, so one slow set-up does not decide it.
const setupRepeats = 5

// tracedPairs is how many untraced/traced trial pairs a traced run
// takes its in-situ numbers from.
const tracedPairs = 3

// errSpent is returned by a trial that cannot run again on its
// set-up state; the harness then stops measuring early.
var errSpent = errors.New("workload state is spent")

// report is everything one run of one workload produced: the
// contract's result object plus what went into it.
type report struct {
	Workload   string     `json:"workload"`
	Traced     bool       `json:"traced"`
	Provenance provenance `json:"provenance"`
	// Claim is the gain this benchmark's numbers are offered in support
	// of. The benchmark itself claims none: its numbers are a baseline.
	Claim  *string `json:"claim"`
	Result result  `json:"result"`
	// Samples holds the per-trial values behind each median, so a
	// comparison can tell a difference from the spread of one run.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Raw holds the medians of the timed metrics in host time, before
	// scaling to reference seconds, and the median slowdown they were
	// scaled by (see calibrate.go).
	Raw    map[string]float64 `json:"raw,omitempty"`
	Trials int                `json:"trials"`
	// LayerSelfS is a traced run's span self time by layer, in seconds,
	// over the workload's own trials (the ledger's spans are left out).
	LayerSelfS map[string]float64 `json:"layer_self_s,omitempty"`
	Observed   *observed          `json:"observed,omitempty"`
	Problems   []string           `json:"problems,omitempty"`
}

// verifier holds every trial's outputs against the first trial's and
// against the committed reference.
type verifier struct {
	first    *observed
	problems []string
	failed   int64
}

func (v *verifier) trial(out trialOut) {
	v.problems = append(v.problems, out.problems...)
	v.failed += out.failed
	if out.obs == nil {
		return
	}
	if v.first == nil {
		v.first = out.obs
		return
	}
	for _, d := range out.obs.diff(*v.first) {
		v.failed++
		v.problems = append(v.problems, "trial output is not repeatable: "+d)
	}
}

// reference holds the run's outputs against the committed ones, when
// there are any for this workload, seed and size.
func (v *verifier) reference(name string, e *env, refs references) {
	ref, ok := refs.lookup(name, e.seed)
	if !ok || e.quick || v.first == nil {
		return
	}
	for _, d := range v.first.diff(ref) {
		v.failed++
		v.problems = append(v.problems, fmt.Sprintf("departs from %s: %s", expectedFile, d))
	}
}

// setupTimed sets the workload up setupRepeats times and returns the
// times in host seconds; the last set-up is the one the trials run on.
func setupTimed(r runner, tc *traceCtx) ([]float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		r.close()
		var err error
		t0 := time.Now()
		tc.span("setup", "harness", func() { err = r.setup(tc) })
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// scale returns xs with every value multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// runUntraced measures the end-to-end metrics of one workload: set-up
// (median of several), then trials back to back until the run's
// seconds are spent, with tracing off. The calibration kernel runs
// before the set-ups, about once a second between trials and after the
// last one; times are reported in reference time, scaled by the run's
// median kernel time (see calibrate.go).
func runUntraced(name string, e *env, sch *schema, refs references) (*report, error) {
	r, err := newRunner(name, e)
	if err != nil {
		return nil, err
	}
	defer r.close()
	kernel := calibrate()
	setups, err := setupTimed(r, nil)
	if err != nil {
		return nil, err
	}

	var v verifier
	var ops int64
	var opsPerS, latMs []float64
	kernel = append(kernel, calibrate()...)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	lastCal := start
	trials := 0
	for trials == 0 || time.Since(start).Seconds() < e.seconds {
		out, err := r.trial(nil)
		if errors.Is(err, errSpent) && trials > 0 {
			break
		}
		if err != nil {
			return nil, err
		}
		trials++
		ops += out.ops
		opsPerS = append(opsPerS, out.opsPerS)
		latMs = append(latMs, out.latMs...)
		v.trial(out)
		if time.Since(lastCal) > time.Second {
			kernel = append(kernel, calibrate()...)
			lastCal = time.Now()
		}
	}
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()
	kernel = append(kernel, calibrate()...)
	slow := slowdown(kernel)
	v.reference(name, e, refs)

	values := map[string]float64{
		"setup_s":        median(setups) / slow,
		"ops_per_s":      median(opsPerS) * slow,
		"latency_p50_ms": median(latMs) / slow,
		"allocs_per_op":  float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		"peak_rss_mb":    rss,
	}
	metrics, err := seal(sch.EndToEnd, values)
	if err != nil {
		return nil, err
	}
	return &report{
		Workload: name, Provenance: e.provenance(),
		Result: result{Correct: len(v.problems) == 0, Attempted: ops, Failed: v.failed, Metrics: metrics},
		Samples: map[string][]float64{
			"setup_s": scale(setups, 1/slow), "ops_per_s": scale(opsPerS, slow), "latency_p50_ms": scale(latMs, 1/slow),
		},
		Raw: map[string]float64{
			"setup_s": median(setups), "ops_per_s": median(opsPerS),
			"latency_p50_ms": median(latMs), "slowdown": slow,
		},
		Trials:   trials,
		Observed: v.first, Problems: v.problems,
	}, nil
}

// runTraced produces the per-layer metrics of one workload. It runs
// the workload's trial a few times, alternately without and with the
// benchmark's probe and spans — the traced trials give the in-situ
// counts and shares, the difference between the two the tracing
// overhead — and then the ledger of isolated layer drivers. spansPath,
// when set, receives every span of the run. withLedger is false only
// when the run is made for its outputs (-update-expected).
func runTraced(name string, e *env, sch *schema, refs references, spansPath string, withLedger bool) (*report, error) {
	r, err := newRunner(name, e)
	if err != nil {
		return nil, err
	}
	defer r.close()
	tr := newTracer(name)
	root := tr.begin(0, name, "harness")
	tc := &traceCtx{tr: tr, parent: root}
	tc.probe = newCycleProbe(tc)
	if _, err := setupTimed(r, tc); err != nil {
		return nil, err
	}

	var v verifier
	var ops int64
	var plain, traced []float64
	var last trialOut
	var mem runtime.MemStats
	var gcCycles, gcPauseMs, bytesPerOp float64
	kernel := calibrate()
	for pair := 0; pair < tracedPairs; pair++ {
		tr.trial = pair + 1
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var out trialOut
		tc.span("untraced-trial", "harness", func() { out, err = r.trial(nil) })
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&mem)
		gcCycles = float64(mem.NumGC - m0.NumGC)
		gcPauseMs = float64(mem.PauseTotalNs-m0.PauseTotalNs) / 1e6
		bytesPerOp = float64(mem.TotalAlloc-m0.TotalAlloc) / float64(out.ops)
		plain = append(plain, out.wall)
		ops += out.ops
		v.trial(out)

		tc.probe.reset()
		tc.span("traced-trial", "harness", func() { out, err = r.trial(tc) })
		if err != nil {
			return nil, err
		}
		if out.obs != nil && tc.probe.jobStarts > 0 {
			out.obs.StartsDigest = tc.probe.startsDigest()
		}
		traced = append(traced, out.wall)
		ops += out.ops
		v.trial(out)
		last = out
		kernel = append(kernel, calibrate()...)
	}
	tr.end(root)
	selfByLayer := layerSelf(tr.spans)
	if last.obs != nil {
		v.first = last.obs // equal to the first trial's, plus the starts digest
	}
	v.reference(name, e, refs)

	values := make(map[string]float64)
	if withLedger {
		if values, err = ledger(e, tr); err != nil {
			return nil, err
		}
	}
	inSitu(values, last, tc.probe, median(plain), median(traced))
	// Per-layer times are host time; the kernel's own time says how the
	// machine ran while they were taken.
	values["harness.calibration_ms"] = median(append(kernel, calibrate()...)) / 1e6
	values["runtime.gc_cycles"] = gcCycles
	values["runtime.gc_pause_ms"] = gcPauseMs
	values["runtime.bytes_per_op"] = bytesPerOp
	values["runtime.heap_inuse_mb"] = float64(mem.HeapInuse) / (1 << 20)
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
	}
	rep := &report{
		Workload: name, Traced: true, Provenance: e.provenance(),
		Result: result{Correct: len(v.problems) == 0, Attempted: ops, Failed: v.failed},
		Trials: 2 * tracedPairs, LayerSelfS: selfByLayer,
		Observed: v.first, Problems: v.problems,
	}
	if withLedger {
		if rep.Result.Metrics, err = seal(sch.PerLayer, values); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// inSitu derives the workload's own layer numbers from its last
// traced trial: exact counts from the probe and the results, and each
// layer's share of the trial's busy time. The unit costs of the ledger
// (already in values) turn counts into time estimates; what neither a
// span nor an estimate accounts for is harness.unexplained_frac — the
// part only tracing inside the program can explain.
func inSitu(values map[string]float64, t trialOut, p *cycleProbe, plainWall, tracedWall float64) {
	ops, busy := float64(t.ops), t.busy
	cycleS, passS := sum(p.cycleNs)/1e9, sum(p.passNs)/1e9
	events := float64(t.events) + float64(t.requests["whatif"])*values["schedd.events_per_whatif"]
	values["harness.traced_wall_s"] = tracedWall
	values["obs.probe_overhead_frac"] = tracedWall/plainWall - 1
	values["sim.events"] = events
	values["sim.events_per_op"] = events / ops
	values["sim.ns_per_event"] = plainWall * 1e9 / events
	values["apps.iterations"] = float64(t.iterations)
	values["slurm.cycles"] = float64(len(p.cycleNs))
	values["slurm.cycles_per_op"] = float64(len(p.cycleNs)) / ops
	values["slurm.cycle_share"] = cycleS / busy
	values["slurm.cycle_self_share"] = (cycleS - passS) / busy
	values["slurm.queue_p50"] = median(p.queue)
	values["slurm.queue_p99"] = percentile(p.queue, 99)
	values["slurm.starts"] = float64(p.starts)
	values["slurm.shrinks"] = float64(p.shrinks)
	values["slurm.expands"] = float64(p.expands)
	values["slurm.spilled"] = float64(p.spilled)
	values["slurm.requeues"] = float64(p.requeues)
	values["sched.calls"] = float64(len(p.passNs))
	values["sched.schedule_share"] = passS / busy
	values["metrics.stats_share"] = t.statsS / busy

	// Counts × unit costs: application iterations, job launches, lazily
	// generated jobs, and the service's what-ifs (its mutations show as
	// the live session's cycles).
	appsS := float64(t.iterations) * values["apps.iter_ns"] / 1e9
	estimate := appsS +
		float64(p.jobStarts)*values["core.launch_ns"]/1e9 +
		float64(t.lazyJobs)*(values["workload.generate_ns_per_job"]+values["workload.map_ns_per_job"])/1e9 +
		float64(t.requests["whatif"])*(values["workload.session_fork_us"]+values["schedd.forward_ms"]*1e3+values["schedd.http_overhead_us"])/1e6
	values["apps.est_share"] = appsS / busy
	values["harness.unexplained_frac"] = 1 - (cycleS+t.statsS+estimate)/busy
}
