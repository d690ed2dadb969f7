package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// readReports loads a results file: one report per line, as -out
// writes them. A file may hold several runs of one workload.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// appendReport adds one report to a results file.
func appendReport(path string, r *report) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// side is one metric of one workload on one side of a comparison: the
// median over the side's runs and the spread the median is known to.
type side struct {
	value, spread float64
	runs          int
}

// minSamples is the fewest per-trial samples a single run's spread is
// estimated from.
const minSamples = 8

// sideOf reduces the runs of one workload to one side of a row. With
// several runs the spread is the runs' interquartile distance over
// their median, as the driver takes it. With a single run it is
// estimated from the per-trial samples behind the run's median (their
// spread shrunk by the square root of their number) when there are at
// least minSamples of them; otherwise it is unknown and taken as 0.
func sideOf(runs []report, metric string) (side, bool) {
	var values []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[metric]; ok {
			values = append(values, m.Value)
		}
	}
	if len(values) == 0 {
		return side{}, false
	}
	s := side{value: median(values), spread: spread(values), runs: len(values)}
	if len(values) == 1 {
		if smp := runs[0].Samples[metric]; len(smp) >= minSamples {
			s.spread = spread(smp) / math.Sqrt(float64(len(smp)))
		}
	}
	return s, true
}

// row is one (workload, metric) line of a comparison.
type row struct {
	workload string
	decl     metricDecl
	a, b     side
	verdict  string
}

// worsening is how far b is worse than a, as a share of a; negative
// when b is better.
func worsening(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// judge gives an end-to-end row its verdict. A change counts only
// when it exceeds both the metric's bound and the spread; where the
// spread is wider than the bound and the change did not clear it, the
// row is unresolved rather than unchanged.
func judge(d metricDecl, a, b side) string {
	noise := math.Max(a.spread, b.spread)
	w := worsening(d, a.value, b.value)
	switch {
	case w > d.Bound && w > noise:
		return "regressed"
	case -w > d.Bound && -w > noise:
		return "improved"
	case noise > d.Bound:
		return "unresolved"
	}
	return "unchanged"
}

// exactKind reports whether a per-layer metric is a count the program
// made, which repeats exactly between two runs of the same code. The
// garbage collector's cycles are not the program's count, and the
// in-situ controller and event counts of schedd_mixed are the other
// exception: its live session sees the mutations of W connections in
// arrival order, and its event count includes an estimate.
func exactKind(workload string, d metricDecl) bool {
	if d.Unit != "count" && d.Unit != "pp" || strings.HasPrefix(d.Name, "runtime.") {
		return false
	}
	inSitu := strings.HasPrefix(d.Name, "slurm.") || strings.HasPrefix(d.Name, "sched.") || strings.HasPrefix(d.Name, "sim.events")
	return workload != "schedd_mixed" || !inSitu
}

// compare builds one row per workload and metric present on both
// sides: end-to-end rows from the untraced runs, judged against their
// bounds, then per-layer rows from the traced runs, where only exact
// counts get a verdict (identical or differs).
func compare(sch *schema, a, b []report) []row {
	group := func(rs []report, name string, traced bool) []report {
		var out []report
		for _, r := range rs {
			if r.Workload == name && r.Traced == traced {
				out = append(out, r)
			}
		}
		return out
	}
	var rows []row
	for _, traced := range []bool{false, true} {
		for _, w := range sch.Workloads {
			ra, rb := group(a, w.Name, traced), group(b, w.Name, traced)
			for _, d := range sch.decls(traced) {
				sa, okA := sideOf(ra, d.Name)
				sb, okB := sideOf(rb, d.Name)
				if !okA || !okB {
					continue
				}
				r := row{workload: w.Name, decl: d, a: sa, b: sb}
				switch {
				case !traced:
					r.verdict = judge(d, sa, sb)
				case !exactKind(w.Name, d):
				case sa.value == sb.value:
					r.verdict = "identical"
				default:
					r.verdict = "differs"
				}
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// printRows writes the comparison table: every ratio with its base.
func printRows(w io.Writer, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA (base)\tB\tB/A\tspread\tbound\tverdict")
	for _, r := range rows {
		ratio := "-"
		if r.a.value != 0 {
			ratio = fmt.Sprintf("%.3f", r.b.value/r.a.value)
		}
		bound := "-"
		if r.decl.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.decl.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%s\t%.1f%%\t%s\t%s\n",
			r.workload, r.decl.Name, r.a.value, r.decl.Unit, r.b.value, r.decl.Unit,
			ratio, 100*math.Max(r.a.spread, r.b.spread), bound, r.verdict)
	}
	tw.Flush()
}

// count returns how many rows carry the verdict.
func count(rows []row, verdict string) int {
	n := 0
	for _, r := range rows {
		if r.verdict == verdict {
			n++
		}
	}
	return n
}
