// Command figures regenerates every table and figure of the paper's
// evaluation section (§6) from the simulated cluster. Output is
// textual: the same series the paper plots, plus the ASCII trace views
// for the figures that are Paraver screenshots in the paper.
//
// Usage:
//
//	figures             # everything
//	figures -id fig4    # one artifact (table1, fig2..fig15)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/apps"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/slurm"
	"repro/internal/version"
	"repro/internal/workload"
)

func main() {
	id := flag.String("id", "", "artifact to regenerate (table1, fig2..fig15); empty = all")
	out := flag.String("out", "", "directory to additionally write trace files (.csv and Paraver .prv) for fig5/fig13")
	svg := flag.String("svg", "", "directory to additionally write SVG renderings of the figures")
	showVersion := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "figures: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(1)
	}
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	outDir = *out
	svgDir = *svg
	if err := run(*id); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

// outDir, when set, receives trace exports; svgDir receives SVGs.
var outDir, svgDir string

// writeSVG stores one rendered figure.
func writeSVG(name, svg string) error {
	if svgDir == "" {
		return nil
	}
	if err := os.MkdirAll(svgDir, 0o755); err != nil {
		return err
	}
	p := filepath.Join(svgDir, name+".svg")
	if err := os.WriteFile(p, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("(svg written: %s)\n\n", p)
	return nil
}

// exportTraces writes the CSV and Paraver forms of a traced result.
func exportTraces(name string, res workload.Result) error {
	if outDir == "" || res.Tracer == nil {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	csvPath := filepath.Join(outDir, name+".csv")
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	if err := res.Tracer.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	write := func(ext string, fn func(io.Writer) error) (string, error) {
		p := filepath.Join(outDir, name+ext)
		f, err := os.Create(p)
		if err != nil {
			return "", err
		}
		if err := fn(f); err != nil {
			f.Close()
			return "", err
		}
		return p, f.Close()
	}
	prvPath, err := write(".prv", res.Tracer.WritePRV)
	if err != nil {
		return err
	}
	if _, err := write(".pcf", res.Tracer.WritePCF); err != nil {
		return err
	}
	if _, err := write(".row", res.Tracer.WriteROW); err != nil {
		return err
	}
	fmt.Printf("(traces written: %s, %s + .pcf/.row)\n\n", csvPath, prvPath)
	return nil
}

// narrations tell the rows of the figure table that are no chart: a
// protocol log and a schematic.
var narrations = map[string]func(io.Writer, map[string]workload.Result) error{"fig2": figure2, "fig3": figure3}

// run regenerates the figure-table row id, or every row when id is
// empty, executing each paper run the rows read once.
func run(id string) error {
	figs := workload.Figures()
	if id != "" {
		i := slices.IndexFunc(figs, func(f workload.Figure) bool { return f.ID == id })
		if i < 0 {
			var ids []string
			for _, f := range figs {
				ids = append(ids, f.ID)
			}
			return fmt.Errorf("unknown -id %q (valid: %s)", id, strings.Join(ids, ", "))
		}
		figs = figs[i : i+1]
	}
	var keys []string
	for _, f := range figs {
		keys = append(keys, f.Runs...)
	}
	rs := workload.RunPaper(keys...)
	for _, f := range figs {
		if err := regenerate(f, rs); err != nil {
			return err
		}
	}
	return nil
}

// regenerate prints one row's figures, drawing their charts, then its
// traces' timelines, trace files and Gantt SVGs.
func regenerate(f workload.Figure, rs map[string]workload.Result) error {
	figs, err := f.Build(rs)
	if err != nil {
		return err
	}
	if narrate := narrations[f.ID]; narrate != nil {
		return narrate(os.Stdout, rs)
	}
	for i, fig := range figs {
		fmt.Println(fig)
		if f.Charts != nil {
			if err := writeSVG(f.Charts[i], fig.Chart().SVG()); err != nil {
				return err
			}
		}
	}
	for _, t := range f.Traces {
		if t.Heading != "" {
			fmt.Println(t.Heading)
		}
		fmt.Println(rs[t.Run].Tracer.RenderTimeline(t.Job, 72, t.Metric))
	}
	for _, t := range f.Traces {
		if err := exportTraces(t.Name, rs[t.Run]); err != nil {
			return err
		}
	}
	for _, t := range f.Traces {
		if err := writeSVG(t.Name+"-timeline", workload.TimelineGantt(rs[t.Run].Tracer, t.Title, 240).SVG()); err != nil {
			return err
		}
	}
	return nil
}

// figure2 narrates the SLURM launch protocol on a live mini-run.
func figure2(w io.Writer, _ map[string]workload.Result) error {
	fmt.Fprintln(w, "== Figure 2: SLURM job launch procedure for DROM malleable applications ==")
	var log obs.Protocol
	s := workload.Scenario{
		Name:  "fig2",
		Nodes: 2,
		Probe: &log,
		Subs: []workload.Submission{
			{Job: slurm.Job{Name: "job1", Spec: apps.Pils(), Cfg: apps.Config{Ranks: 2, Threads: 16},
				Iters: 400, Nodes: 2, Malleable: true}},
			{At: 50, Job: slurm.Job{Name: "job2", Spec: apps.Pils(), Cfg: apps.Config{Ranks: 4, Threads: 4},
				Iters: 100, Nodes: 2, Malleable: true}},
		},
	}
	res := workload.Run(s, slurm.PolicyDROM)
	if res.Err != nil {
		return res.Err
	}
	fmt.Fprintln(w, "protocol events recorded by the DROM-enabled slurmd/slurmstepd:")
	for _, line := range log.Lines {
		fmt.Fprintln(w, "  "+line)
	}
	fmt.Fprintln(w, "(job1 applies staged shrinks at its next DLB_PollDROM safe point,")
	fmt.Fprintln(w, " and re-expands after job2's post_term/release_resources)")
	for _, j := range res.Records.Jobs {
		fmt.Fprintf(w, "  %-6s submit=%6.1f start=%6.1f end=%7.1f response=%7.1f\n",
			j.Name, j.Submit, j.Start, j.End, j.ResponseTime())
	}
	fmt.Fprintln(w)
	return nil
}

// figure3 renders the UC1 schematic: per-job running-thread counts
// over time under both policies.
func figure3(w io.Writer, rs map[string]workload.Result) error {
	fmt.Fprintln(w, "== Figure 3: In-situ analytics schematic (resource shares over time) ==")
	for _, pol := range []string{"serial", "drom"} {
		res := rs["fig3/"+pol]
		fmt.Fprintf(w, "--- %s scenario ---\n", pol)
		var s metrics.Series
		s.Label = "end (s)"
		for _, j := range res.Records.Jobs {
			s.Add(j.Name, j.End)
		}
		fmt.Fprint(w, metrics.Table(s))
	}
	fmt.Fprintln(w)
	return nil
}
