// Command bench is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the simulator, the sweep engine and the
// what-if service would see, and a per-layer ledger measured from
// outside — by timing calls into each layer's public functions, by the
// public Scenario.Probe hook and by exact counts the results already
// expose. BENCHMARK.json at the repository root declares every
// workload and metric by name; README.md in this directory says what
// each is for and how they interact.
//
// Usage, from the repository root:
//
//	go run ./bench                              # the suite: each workload in its own process
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	go run ./bench -workload W -trace 1 -spans spans.json
//	go run ./bench -quick                       # the whole suite as a smoke test, < 10 s
//	go run ./bench -out results.jsonl           # append one report per run
//	go run ./bench -compare A.jsonl B.jsonl     # one row per (workload, metric)
//	go run ./bench -selfcheck                   # the suite twice; every row must be unchanged
//	go run ./bench -update-expected             # rewrite bench/expected.json (seeds 1 and 7)
//
// A run with -workload prints every metric by name with its unit and,
// as the last line of its standard output, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. It exits
// non-zero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// referenceSeeds are the seeds with committed outputs: 1 is the
// default, 7 is held out (never used while a change is written).
var referenceSeeds = []int64{1, 7}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	spans    string
	quick    bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload in this process (default: every workload, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "seconds to measure for (default: run_seconds of BENCHMARK.json; 1 with -quick)")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the run's spans to this file as JSON")
	flag.BoolVar(&o.quick, "quick", false, "shrink every workload to a smoke test (no reference check)")
	flag.StringVar(&o.out, "out", "", "append each run's report to this file, one JSON object per line")
	cmp := flag.Bool("compare", false, "compare two -out files given as arguments")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice, untraced and traced, and require every row unchanged")
	update := flag.Bool("update-expected", false, "rewrite "+expectedFile+" from traced runs at the reference seeds")
	flag.Parse()

	sch, err := loadSchema()
	if err != nil {
		fatal(err)
	}
	if o.seconds <= 0 {
		o.seconds = float64(sch.RunSeconds)
		if o.quick {
			o.seconds = 1
		}
	}
	switch {
	case *cmp:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		err = compareFiles(sch, flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(sch, o)
	case *update:
		err = updateExpected(sch, o)
	case o.workload != "":
		err = runOne(sch, o)
	default:
		err = runSuite(o, []int{o.trace})
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// errIncorrect reports a run whose outputs failed a check.
var errIncorrect = fmt.Errorf("an output check failed")

// runOne runs one workload in this process and prints its report,
// ending with the contract's JSON line.
func runOne(sch *schema, o options) error {
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	e := newEnv(o.seed, o.seconds, o.quick)
	var rep *report
	if o.trace != 0 {
		rep, err = runTraced(o.workload, e, sch, refs, o.spans, true)
	} else {
		rep, err = runUntraced(o.workload, e, sch, refs)
	}
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := appendReport(o.out, rep); err != nil {
			return err
		}
	}
	printReport(sch, rep)
	if !rep.Result.Correct {
		return errIncorrect
	}
	return nil
}

// printReport writes a run's provenance, every metric by name with
// its unit, the outcome of the checks and the contract line.
func printReport(sch *schema, rep *report) {
	prov, _ := json.Marshal(rep.Provenance)
	fmt.Printf("# %s traced=%v %s\n", rep.Workload, rep.Traced, prov)
	for _, d := range sch.decls(rep.Traced) {
		fmt.Printf("%-32s %14.6g %s\n", d.Name, rep.Result.Metrics[d.Name].Value, d.Unit)
	}
	for _, name := range sortedKeys(rep.Samples) {
		smp := rep.Samples[name]
		line := fmt.Sprintf("# %s: n=%d spread=%.1f%%", name, len(smp), 100*spread(smp))
		if p := highestPercentile(len(smp)); p > 50 {
			line += fmt.Sprintf(" p%g=%.6g", p, percentile(smp, p))
		}
		fmt.Println(line)
	}
	if rep.Raw != nil {
		fmt.Printf("# host time ÷ %.3f = reference time; in host time: setup_s=%.6g ops_per_s=%.6g latency_p50_ms=%.6g\n",
			rep.Raw["slowdown"], rep.Raw["setup_s"], rep.Raw["ops_per_s"], rep.Raw["latency_p50_ms"])
	}
	for _, layer := range sortedKeys(rep.LayerSelfS) {
		fmt.Printf("# span self time, layer %s: %.4f s\n", layer, rep.LayerSelfS[layer])
	}
	for _, p := range rep.Problems {
		fmt.Println("# PROBLEM:", p)
	}
	fmt.Printf("# trials=%d attempted=%d failed=%d correct=%v\n", rep.Trials, rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
	line, _ := json.Marshal(rep.Result)
	fmt.Println(string(line))
}

// runSuite runs every workload in a fresh child process of this
// binary — so peak RSS, heap and GC state are each workload's own —
// once per requested trace mode. Children print their own reports.
func runSuite(o options, traces []int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, trace := range traces {
		for _, d := range workloadDefs {
			args := []string{
				"-workload", d.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
			}
			if o.quick {
				args = append(args, "-quick")
			}
			if o.out != "" {
				args = append(args, "-out", o.out)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", d.name, err)
				failed++
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload runs failed", failed)
	}
	return nil
}

func compareFiles(sch *schema, pathA, pathB string) error {
	a, err := readReports(pathA)
	if err != nil {
		return err
	}
	b, err := readReports(pathB)
	if err != nil {
		return err
	}
	rows := compare(sch, a, b)
	printRows(os.Stdout, rows)
	if n := count(rows, "regressed"); n > 0 {
		return fmt.Errorf("%d rows regressed", n)
	}
	return nil
}

// selfCheck runs the suite twice with the same code, untraced and
// traced, and compares the two: every end-to-end row must come out
// unchanged and every exact count identical, or the benchmark cannot
// tell a change from its own noise. setup_s is printed but not held to
// that: its five set-ups take a few tenths of a second, one burst of
// interference covers them all, and only the median of several runs —
// which is what the driver compares — is steady.
func selfCheck(sch *schema, o options) error {
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var sides [2][]report
	for i := range sides {
		o.out = filepath.Join(dir, fmt.Sprintf("side%d.jsonl", i))
		if err := runSuite(o, []int{0, 1}); err != nil {
			return err
		}
		if sides[i], err = readReports(o.out); err != nil {
			return err
		}
	}
	rows := compare(sch, sides[0], sides[1])
	printRows(os.Stdout, rows)
	bad := 0
	for _, r := range rows {
		if r.decl.Name != "setup_s" && r.verdict != "" && r.verdict != "unchanged" && r.verdict != "identical" {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d rows are not unchanged/identical between two runs of the same code", bad)
	}
	fmt.Println("selfcheck: every end-to-end row unchanged, every exact count identical")
	return nil
}

// updateExpected rewrites the committed references from traced runs
// (their outputs are a superset of an untraced run's) at the reference
// seeds. Outputs do not depend on how long a run measures.
func updateExpected(sch *schema, o options) error {
	refs := make(references)
	for _, d := range workloadDefs {
		refs[d.name] = make(map[string]observed)
		for _, seed := range referenceSeeds {
			rep, err := runTraced(d.name, newEnv(seed, 1, false), sch, nil, "", false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", d.name, seed, err)
			}
			if !rep.Result.Correct || rep.Observed == nil {
				return fmt.Errorf("%s seed %d: run is not correct: %v", d.name, seed, rep.Problems)
			}
			refs[d.name][strconv.FormatInt(seed, 10)] = *rep.Observed
			fmt.Printf("%s seed %d: %+v\n", d.name, seed, *rep.Observed)
		}
	}
	return refs.write()
}
