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
//	slurmsim -sweep 'scenario=uc1;jitter=0.02;seeds=1-3;policies=serial,drom'
//
// Every flag that describes the run sets keys of workload.ParseSpec's
// grammar, and a -sweep value is a whole spec in it: `-nodes 4` and
// `nodes=4` go through one parser and one Validate. The trace-replay
// flags (-sched, -swf, -seed, -jobs, -nodes, -cluster, -spill,
// -node-faults, -stream, ...) set one key each; without -sched or
// -swf, the paper flags set scenario, policies, trace and, for uc1,
// sim and ana (-sim nest -simconf 1 is sim=nest1).
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/version"
	"repro/internal/workload"
)

func main() {
	scenario := flag.String("scenario", "uc1", "uc1 (in-situ analytics), uc2 (high-priority job) or djsb (randomized stream)")
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
	// -interarrival and -nodes too, and the flags above set keys of the
	// same spec (setPaperKeys).
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
	switch {
	case err != nil:
	case *sweepSpec != "":
		err = runSweep(*sweepSpec, *sweepWorkers, *format, *out, *progress)
	default:
		if len(spec.Policies) == 0 && spec.SWFPath == "" {
			err = setPaperKeys(&spec, *scenario, *policy, *simName, *simConf, *anaName, *anaConf, *traced)
		}
		if err == nil {
			err = run(spec, obsArgs{
				tracePath:  *traceSched,
				explainJob: *explainJob,
				sample:     sample.Seconds(),
				sampleOut:  *sampleOut,
				hist:       *hist,
			}, *width, *metric)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "slurmsim: %v\n", err)
		pprof.StopCPUProfile()
		writeMemProfile()
		os.Exit(1)
	}
}

// paperPolicies are the -policy values that name several builtin
// controller policies.
var paperPolicies = map[string]string{"both": "serial,drom", "all": "serial,drom,oversubscribe,preempt"}

// setPaperKeys sets the keys the paper flags name: the scenario, its
// policies and whether it is traced and, for uc1, the simulator and
// the analytics, each an app and its Table 1 configuration.
func setPaperKeys(s *workload.Spec, scenario, policy, sim string, simConf int, ana string, anaConf int, traced bool) error {
	keys := [][2]string{{"scenario", scenario}, {"policies", cmp.Or(paperPolicies[policy], policy)}, {"trace", strconv.FormatBool(traced)}}
	if scenario == "uc1" {
		keys = append(keys, [2]string{"sim", sim + strconv.Itoa(simConf)}, [2]string{"ana", ana + strconv.Itoa(anaConf)})
	}
	for _, kv := range keys {
		if err := s.Set(kv[0], kv[1]); err != nil {
			return err
		}
	}
	return nil
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
	probe   obs.Probe
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

// run replays each cell of the spec — a trace under sched policies, or
// a paper scenario on the builtin controller path — with the
// observability consumers attached, and prints its result: a trace
// cell's scheduler-quality metrics, a DJSB cell's too, and a UC1 or
// UC2 cell's per-job records and, traced, its timeline. A materialized
// trace is built once and shared by every cell; with spec.Stream each
// cell reads a fresh lazy source and job records are folded into
// aggregates as they complete, so million-job traces replay in memory
// proportional to the scheduler backlog.
func run(spec workload.Spec, o obsArgs, width int, metric string) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	cells := spec.Cells()
	policyFlag := "-sched"
	if spec.Paper != "" {
		policyFlag = "-policy"
	}
	if err := o.checkSingle(len(cells), policyFlag); err != nil {
		return err
	}
	var sc workload.Scenario
	if !spec.Stream {
		var err error
		if sc, err = spec.Scenario(); err != nil {
			return err
		}
	}
	switch spec.Paper {
	case "":
		fmt.Printf("=== SWF replay: %s ===\n", spec)
	case "djsb":
		fmt.Printf("=== %s ===\n", sc.Name)
	}
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
		if res.Err != nil {
			or.close()
			return fmt.Errorf("%s: %w", cell, res.Err)
		}
		switch spec.Paper {
		case "":
			dropped := ""
			if d := res.Records.Dropped; d.Total() > 0 {
				dropped = fmt.Sprintf(", trace: %s", d)
			}
			// A streamed result is aggregated: its stats are the mean/max
			// subset, with no per-job widths behind the demand figure.
			// Steps follow from the decisions alone; events are the steps
			// the engine executed rather than advanced by itself.
			ps, _ := sched.ParsePolicySet(cell.Policies[0]) // Validate parsed it
			fmt.Printf("sched=%-17s %s [%d cycles, %d steps, %d events, %.2fs wall%s]\n",
				ps, workload.SchedStatsOf(sess.Scenario(), res), res.SchedCycles, res.Steps, res.Events, wall.Seconds(), dropped)
			if len(spec.Cluster.Partitions) > 1 {
				for _, p := range res.Records.PartitionStats() {
					fmt.Printf("      %s\n", p)
				}
			}
		case "djsb":
			fmt.Printf("policy=%-13s %s\n", res.Policy, workload.SchedStatsOf(sess.Scenario(), res))
		default:
			fmt.Printf("=== %s under %s ===\n", sess.Scenario().Name, res.Policy)
			fmt.Print(res.Records.String())
			if res.Tracer != nil {
				fmt.Println(res.Tracer.RenderTimeline("", width, metric))
			}
			fmt.Println()
		}
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
