// Command slurmsim runs the paper's workload scenarios on the
// simulated DROM-enabled SLURM cluster and prints the system metrics
// (and optionally the Paraver-like trace timelines).
//
// Examples:
//
//	slurmsim -scenario uc1 -sim nest -simconf 1 -ana pils -anaconf 2
//	slurmsim -scenario uc1 -policy serial -sim coreneuron -ana stream
//	slurmsim -scenario uc2 -trace -metric cycles
//	slurmsim -scenario uc2 -policy preempt -explain nest -hist
//	slurmsim -sched easy,malleable -jobs 1000          # synthetic SWF replay
//	slurmsim -sched all -swf trace.swf -nodes 8        # real trace replay
//	slurmsim -sched fcfs -jobs 1000000 -stream         # bounded-memory replay
//	slurmsim -sweep 'policies=all;seeds=1-4;jobs=5000' # parallel experiment grid
//
// The trace-replay flags (-sched, -swf, -seed, -jobs, -nodes, -cluster,
// -spill, -node-faults, -stream, ...) each set one key of
// workload.ParseSpec's grammar, and a -sweep value is a whole spec in
// it: `-nodes 4` and `nodes=4` go through one parser and one Validate.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/cluster"
	"repro/internal/djsb"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/version"
	"repro/internal/workload"
)

func main() {
	scenario := flag.String("scenario", "uc1", "uc1 (in-situ analytics) or uc2 (high-priority job)")
	policy := flag.String("policy", "both", "uc1/uc2/djsb: serial, drom, oversubscribe, preempt, both (serial+drom), or all")
	simName := flag.String("sim", "nest", "uc1 simulator: nest or coreneuron")
	simConf := flag.Int("simconf", 1, "uc1 simulator configuration (Table 1)")
	anaName := flag.String("ana", "pils", "uc1 analytics: pils or stream")
	anaConf := flag.Int("anaconf", 2, "uc1 analytics configuration (Table 1)")
	traced := flag.Bool("trace", false, "record and print the trace timeline")
	metric := flag.String("metric", "util", "timeline metric: util, cycles, or ipc")
	width := flag.Int("width", 100, "timeline width in characters (at least 1)")
	// The trace-mode flags (-sched, -swf, -seed, -jobs, -nodes, ...)
	// are workload.Spec keys; -scenario djsb reads -seed, -jobs,
	// -interarrival and -nodes too.
	workload.RegisterFlags(flag.CommandLine, workload.SlurmsimFlags, nil)
	sweepSpec := flag.String("sweep", "", "run a parallel experiment grid, e.g. "+
		"'policies=all;seeds=1-4;jobs=5000;nodes=4' (the keys of internal/workload.ParseSpec)")
	sweepWorkers := flag.Int("workers", 0, "sweep: worker goroutines (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "sweep output format: table, json, or csv")
	out := flag.String("out", "", "sweep: write the summary to this file instead of stdout")
	traceSched := flag.String("trace-sched", "", "any single-policy run: write a JSONL decision trace (one line per "+
		"non-empty policy pass: virtual time, partition, queue depth, free CPUs, actions with reasons)")
	explainJob := flag.String("explain", "", "any single-policy run: print the named job's lifecycle story afterwards "+
		"(submission, queue-position evolution, wait reasons, placement, completion)")
	sample := flag.Duration("sample", 0, "any single-policy run: emit a per-partition time series every given interval "+
		"of VIRTUAL time (e.g. 60s): utilization, queue depth, running jobs, spill tallies")
	sampleOut := flag.String("sample-out", "", "time-series output file; '-' for stdout, "+
		"a .json suffix selects JSONL over CSV (required with -sample)")
	hist := flag.Bool("hist", false, "any single-policy run: report wall-time histograms per scheduling cycle and "+
		"per Schedule() call at exit")
	progress := flag.Bool("progress", false, "sweep: live progress (cells done/total, cells/s, ETA) to stderr")
	dromAgent := flag.Bool("drom-agent", false, "run as a DROM agent process: register on a file-backed "+
		"segment and poll until an external administrator (dromctl -backend file:...) changes the mask")
	shmemDir := flag.String("shmem-dir", "", "drom-agent: directory of the file-backed shmem registry")
	agentNode := flag.String("agent-node", "node0", "drom-agent: segment (node) name")
	agentCPUs := flag.Int("agent-cpus", 16, "drom-agent: node CPU count when creating the segment")
	agentTimeout := flag.Duration("agent-timeout", 30*time.Second, "drom-agent: give up after this long "+
		"without observing a mask change")
	showVersion := flag.Bool("version", false, "print the build's module version and VCS revision, then exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "slurmsim: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(1)
	}

	if *showVersion {
		fmt.Println(version.String())
		return
	}

	if *dromAgent {
		if *shmemDir == "" {
			fmt.Fprintln(os.Stderr, "slurmsim: -drom-agent requires -shmem-dir")
			os.Exit(2)
		}
		if err := runDromAgent(*shmemDir, *agentNode, *agentCPUs, *agentTimeout); err != nil {
			fmt.Fprintf(os.Stderr, "slurmsim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "slurmsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "slurmsim: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	writeMemProfile := func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "slurmsim: -memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "slurmsim: -memprofile: %v\n", err)
		}
	}
	defer writeMemProfile()
	// Route through run() so both profiles flush on success AND
	// failure (os.Exit skips defers, so the error path writes them
	// explicitly — a failing replay is exactly when a profile helps).
	spec, err := workload.FlagSpec(flag.CommandLine, workload.SlurmsimFlags)
	if err == nil {
		err = checkTimeline(*width, *metric)
	}
	if err == nil {
		err = run(runArgs{
			scenario: *scenario, policy: *policy,
			simName: *simName, simConf: *simConf, anaName: *anaName, anaConf: *anaConf,
			traced: *traced, metric: *metric, width: *width,
			spec:      spec,
			sweepSpec: *sweepSpec, sweepWorkers: *sweepWorkers, format: *format, out: *out,
			progress: *progress,
			obs: obsArgs{
				tracePath:  *traceSched,
				explainJob: *explainJob,
				sample:     sample.Seconds(),
				sampleOut:  *sampleOut,
				hist:       *hist,
			},
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "slurmsim: %v\n", err)
		pprof.StopCPUProfile()
		writeMemProfile()
		os.Exit(1)
	}
}

// runArgs carries the parsed flags.
type runArgs struct {
	scenario, policy string
	simName, anaName string
	simConf, anaConf int
	traced           bool
	metric           string
	width            int
	spec             workload.Spec // the trace-mode (and djsb) flags
	sweepSpec        string
	sweepWorkers     int
	format, out      string
	progress         bool
	obs              obsArgs
}

// obsArgs carries the observability-consumer flags (see internal/obs);
// they apply to every mode that replays one scenario under one policy.
type obsArgs struct {
	tracePath  string  // -trace-sched: JSONL decision trace
	explainJob string  // -explain: per-job lifecycle story
	sample     float64 // -sample: virtual-time sampling interval (s)
	sampleOut  string  // -sample-out: time-series destination
	hist       bool    // -hist: cycle/Schedule wall-time histograms
}

// active reports whether any consumer was requested.
func (o obsArgs) active() bool {
	return o.tracePath != "" || o.explainJob != "" || o.sample > 0 || o.hist
}

// obsRun is one replay's consumer wiring: the composed probe plus the
// finishers that flush files and print reports once the replay ends.
type obsRun struct {
	probe   cluster.Probe
	trace   *obs.SchedTrace
	traceF  *os.File
	explain *obs.Explain
	sampler *obs.Sampler
	sampleF *os.File
	hist    *obs.CycleHist
}

// start opens the consumers' outputs and composes the probe.
// A zero obsArgs yields a nil probe at no cost.
func (o obsArgs) start() (*obsRun, error) {
	r := &obsRun{}
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return nil, fmt.Errorf("-trace-sched: %w", err)
		}
		r.traceF = f
		r.trace = obs.NewSchedTrace(f)
	}
	if o.explainJob != "" {
		r.explain = obs.NewExplain(o.explainJob)
	}
	if o.sample > 0 {
		switch o.sampleOut {
		case "":
			r.close()
			return nil, fmt.Errorf("-sample requires -sample-out (a file path, or '-' for stdout)")
		case "-":
			r.sampler = obs.NewSampler(o.sample, os.Stdout, false)
		default:
			f, err := os.Create(o.sampleOut)
			if err != nil {
				r.close()
				return nil, fmt.Errorf("-sample-out: %w", err)
			}
			r.sampleF = f
			r.sampler = obs.NewSampler(o.sample, f, strings.HasSuffix(o.sampleOut, ".json"))
		}
	}
	if o.hist {
		r.hist = &obs.CycleHist{}
	}
	// Append only the consumers that exist: a typed-nil *SchedTrace
	// etc. would be a non-nil Probe interface and defeat Multi's nil
	// dropping.
	var ps []obs.Probe
	if r.trace != nil {
		ps = append(ps, r.trace)
	}
	if r.explain != nil {
		ps = append(ps, r.explain)
	}
	if r.sampler != nil {
		ps = append(ps, r.sampler)
	}
	if r.hist != nil {
		ps = append(ps, r.hist)
	}
	r.probe = obs.Multi(ps...)
	return r, nil
}

// close releases the output files (error path of start).
func (r *obsRun) close() {
	if r.traceF != nil {
		r.traceF.Close()
	}
	if r.sampleF != nil {
		r.sampleF.Close()
	}
}

// finish flushes the file-backed consumers and prints the
// explain/histogram reports.
func (r *obsRun) finish() error {
	if r.trace != nil {
		if err := r.trace.Flush(); err != nil {
			return fmt.Errorf("-trace-sched: %w", err)
		}
		if err := r.traceF.Close(); err != nil {
			return fmt.Errorf("-trace-sched: %w", err)
		}
	}
	if r.sampler != nil {
		if err := r.sampler.Flush(); err != nil {
			return fmt.Errorf("-sample-out: %w", err)
		}
		if r.sampleF != nil {
			if err := r.sampleF.Close(); err != nil {
				return fmt.Errorf("-sample-out: %w", err)
			}
		}
	}
	if r.explain != nil {
		fmt.Print(r.explain.Story())
	}
	if r.hist != nil {
		r.hist.Report(os.Stdout)
	}
	return nil
}

// timelineMetrics are the values -metric takes.
var timelineMetrics = []string{"util", "cycles", "ipc"}

// checkTimeline rejects a -width or -metric the timeline cannot
// render, before any run starts.
func checkTimeline(width int, metric string) error {
	if width < 1 {
		return fmt.Errorf("-width %d: the timeline needs at least 1 character", width)
	}
	if !slices.Contains(timelineMetrics, metric) {
		return fmt.Errorf("unknown -metric %q (%s)", metric, strings.Join(timelineMetrics, ", "))
	}
	return nil
}

func run(a runArgs) error {
	if a.sweepSpec != "" {
		return runSweep(a.sweepSpec, a.sweepWorkers, a.format, a.out, a.progress)
	}
	if len(a.spec.Policies) > 0 || a.spec.SWFPath != "" {
		return runSched(a.spec, a.obs)
	}

	if a.scenario == "djsb" {
		return runDJSB(a.spec, a.policy, a.obs)
	}

	sc, err := buildScenario(a.scenario, a.simName, a.simConf, a.anaName, a.anaConf, a.traced)
	if err != nil {
		return err
	}
	return runPolicies(sc, a.policy, a.obs, func(res cluster.Result) {
		fmt.Printf("=== %s under %s ===\n", sc.Name, res.Policy)
		fmt.Print(res.Records.String())
		if a.traced && res.Tracer != nil {
			fmt.Println(res.Tracer.RenderTimeline("", a.width, a.metric))
		}
		fmt.Println()
	})
}

// runPolicies runs one scenario on the builtin controller path under
// each policy the -policy value names, with the observability
// consumers attached, and hands every result to report.
func runPolicies(sc cluster.Scenario, policy string, o obsArgs, report func(cluster.Result)) error {
	policies, err := parsePolicies(policy)
	if err != nil {
		return err
	}
	if err := o.checkSingle(len(policies), "-policy"); err != nil {
		return err
	}
	for _, p := range policies {
		or, err := o.start()
		if err != nil {
			return err
		}
		sc.Probe = or.probe
		res := cluster.Run(sc, p)
		if res.Err != nil {
			or.close()
			return fmt.Errorf("%s under %s: %w", sc.Name, p, res.Err)
		}
		report(res)
		if err := or.finish(); err != nil {
			return err
		}
	}
	return nil
}

// runSweep parses the grid spec, fans the experiments across workers
// and writes the summary in the requested format.
func runSweep(spec string, workers int, format, out string, progress bool) error {
	grid, err := workload.ParseSpec(spec)
	if err != nil {
		return err
	}
	if progress {
		// Progress lines go to stderr: stdout keeps the byte-identical
		// grid-order summary.
		grid.Probe = obs.NewProgress(os.Stderr)
	}
	sum, err := sweep.Run(grid, workers)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "table", "":
		_, err = fmt.Fprint(w, sum.Table())
	case "json":
		err = sum.WriteJSON(w)
	case "csv":
		err = sum.WriteCSV(w)
	default:
		err = fmt.Errorf("unknown sweep format %q (table, json, csv)", format)
	}
	return err
}

// printPartitions prints the per-partition metric lines of a
// multi-partition run.
func printPartitions(res cluster.Result, multi bool) {
	if !multi {
		return
	}
	for _, ps := range res.Records.PartitionStats() {
		fmt.Printf("      %s\n", ps)
	}
}

// runSched replays an SWF workload — a trace file or the seeded
// synthetic generator — under each policy of the spec and prints the
// scheduler-quality metrics of each. A materialized trace is built
// once and shared by every policy's replay; with spec.Stream each
// policy reads a fresh lazy source and job records are folded into
// aggregates as they complete, so million-job traces replay in memory
// proportional to the scheduler backlog.
func runSched(spec workload.Spec, o obsArgs) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	cells := spec.Cells()
	if err := o.checkSingle(len(cells), "-sched"); err != nil {
		return err
	}
	var sc workload.Scenario
	if !spec.Stream {
		var err error
		if sc, err = spec.Scenario(); err != nil {
			return err
		}
	}
	fmt.Printf("=== SWF replay: %s ===\n", spec)
	multi := len(spec.Cluster.Partitions) > 1
	for _, cell := range cells {
		or, err := o.start()
		if err != nil {
			return err
		}
		start := time.Now()
		sess, err := cell.Open(sc, or.probe)
		if err != nil {
			or.close()
			return err
		}
		res := sess.Run()
		wall := time.Since(start)
		ps, _ := sched.ParsePolicySet(cell.Policies[0]) // Validate parsed it
		if res.Err != nil {
			or.close()
			return fmt.Errorf("%s: %w", ps, res.Err)
		}
		dropped := ""
		if d := res.Records.Dropped; d.Total() > 0 {
			dropped = fmt.Sprintf(", trace: %s", d)
		}
		// A streamed result is aggregated: its stats are the mean/max
		// subset, with no per-job widths behind the demand figure. Steps
		// follow from the decisions alone; events are the steps the
		// engine executed rather than advanced by itself.
		fmt.Printf("sched=%-17s %s [%d cycles, %d steps, %d events, %.2fs wall%s]\n",
			ps, workload.SchedStatsOf(sess.Scenario(), res), res.SchedCycles, res.Steps, res.Events, wall.Seconds(), dropped)
		printPartitions(res, multi)
		if err := or.finish(); err != nil {
			return err
		}
	}
	return nil
}

// checkSingle rejects multi-policy replays when a consumer is active:
// the trace, story and time series describe ONE replay, and mixing
// several policies' streams into one output would be misleading. flag
// names the option that selects the policies.
func (o obsArgs) checkSingle(policies int, flag string) error {
	if o.active() && policies > 1 {
		return fmt.Errorf("-trace-sched/-explain/-sample/-hist need a single policy; pick one with %s (got %d)", flag, policies)
	}
	return nil
}

// runDJSB generates a randomized DJSB-style stream and compares the
// requested policies on it. It reads the spec's seed, jobs,
// interarrival and nodes, with the DJSB defaults for those left unset
// (20 jobs, 150 s apart, on 2 nodes).
func runDJSB(s workload.Spec, policy string, o obsArgs) error {
	p := djsb.Params{Seed: 1, Jobs: cmp.Or(s.Jobs, 20), MeanInterarrival: cmp.Or(s.MeanInterarrival, 150), Nodes: cmp.Or(s.Nodes, 2)}
	if len(s.Seeds) > 0 {
		p.Seed = s.Seeds[0]
	}
	sc, err := cluster.GenerateDJSB(p)
	if err != nil {
		return err
	}
	fmt.Printf("=== DJSB stream: seed=%d jobs=%d mean-interarrival=%.0fs nodes=%d ===\n",
		p.Seed, p.Jobs, p.MeanInterarrival, p.Nodes)
	return runPolicies(sc, policy, o, func(res cluster.Result) {
		fmt.Println(djsb.Summarize(res))
	})
}

func buildScenario(name, simName string, simConf int, anaName string, anaConf int, traced bool) (cluster.Scenario, error) {
	switch name {
	case "uc2":
		return cluster.UC2(traced), nil
	case "uc1":
		simCfgs := cluster.Table1(simName)
		if simCfgs == nil {
			return cluster.Scenario{}, fmt.Errorf("unknown simulator %q", simName)
		}
		if simConf < 1 || simConf > len(simCfgs) {
			return cluster.Scenario{}, fmt.Errorf("%s has configurations 1..%d", simName, len(simCfgs))
		}
		anaCfgs := cluster.Table1(anaName)
		if anaCfgs == nil {
			return cluster.Scenario{}, fmt.Errorf("unknown analytics %q", anaName)
		}
		if anaConf < 1 || anaConf > len(anaCfgs) {
			return cluster.Scenario{}, fmt.Errorf("%s has configurations 1..%d", anaName, len(anaCfgs))
		}
		return cluster.UC1(simName, simCfgs[simConf-1], anaName, anaCfgs[anaConf-1], traced), nil
	default:
		return cluster.Scenario{}, fmt.Errorf("unknown scenario %q (uc1 or uc2)", name)
	}
}

func parsePolicies(p string) ([]cluster.Policy, error) {
	switch p {
	case "serial":
		return []cluster.Policy{cluster.Serial}, nil
	case "drom":
		return []cluster.Policy{cluster.DROM}, nil
	case "oversubscribe":
		return []cluster.Policy{cluster.Oversubscribe}, nil
	case "preempt":
		return []cluster.Policy{cluster.Preempt}, nil
	case "both":
		return []cluster.Policy{cluster.Serial, cluster.DROM}, nil
	case "all":
		return []cluster.Policy{cluster.Serial, cluster.DROM, cluster.Oversubscribe, cluster.Preempt}, nil
	}
	return nil, fmt.Errorf("unknown policy %q", p)
}
