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

// printFig prints a bar figure and optionally renders it.
func printFig(name string, f workload.FigureData) error {
	fmt.Println(f)
	return writeSVG(name, f.Chart().SVG())
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

// artifactIDs are the values -id takes.
var artifactIDs = []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"}

func run(id string) error {
	if id != "" && !slices.Contains(artifactIDs, id) {
		return fmt.Errorf("unknown -id %q (valid: %s)", id, strings.Join(artifactIDs, ", "))
	}
	all := id == ""
	want := func(k string) bool { return all || id == k }

	if want("table1") {
		fmt.Println(workload.Table1Data())
	}
	if want("fig2") {
		if err := figure2(os.Stdout); err != nil {
			return err
		}
	}
	if want("fig3") {
		if err := figure3(); err != nil {
			return err
		}
	}
	if want("fig4") {
		f, err := workload.Figure4()
		if err != nil {
			return err
		}
		if err := printFig("fig4", f); err != nil {
			return err
		}
	}
	if want("fig5") {
		res, f, err := workload.Figure5()
		if err != nil {
			return err
		}
		fmt.Println(f)
		fmt.Println(res.Tracer.RenderTimeline("nest", 72, "util"))
		if err := exportTraces("fig5", res); err != nil {
			return err
		}
		if err := writeSVG("fig5-timeline",
			workload.TimelineGantt(res.Tracer, "Figure 5: NEST thread utilization (DROM)", 240).SVG()); err != nil {
			return err
		}
	}
	if want("fig6") {
		f, err := workload.Figure6()
		if err != nil {
			return err
		}
		if err := printFig("fig6", f); err != nil {
			return err
		}
	}
	if want("fig7") {
		rt, resp, err := workload.Figure7()
		if err != nil {
			return err
		}
		if err := printFig("fig7-runtime", rt); err != nil {
			return err
		}
		if err := printFig("fig7-response", resp); err != nil {
			return err
		}
	}
	if want("fig8") {
		f, err := workload.Figure8()
		if err != nil {
			return err
		}
		if err := printFig("fig8", f); err != nil {
			return err
		}
	}
	if want("fig9") {
		f, err := workload.Figure9()
		if err != nil {
			return err
		}
		if err := printFig("fig9", f); err != nil {
			return err
		}
	}
	if want("fig10") {
		f, err := workload.Figure10()
		if err != nil {
			return err
		}
		if err := printFig("fig10", f); err != nil {
			return err
		}
	}
	if want("fig11") {
		rt, resp, err := workload.Figure11()
		if err != nil {
			return err
		}
		if err := printFig("fig11-runtime", rt); err != nil {
			return err
		}
		if err := printFig("fig11-response", resp); err != nil {
			return err
		}
	}
	if want("fig12") {
		f, err := workload.Figure12()
		if err != nil {
			return err
		}
		if err := printFig("fig12", f); err != nil {
			return err
		}
	}
	if want("fig13") || want("fig14") {
		serial, drom, fig13, err := workload.Figure13()
		if err != nil {
			return err
		}
		if want("fig13") {
			fmt.Println(fig13)
			fmt.Println("Serial scenario (cycles/µs):")
			fmt.Println(serial.Tracer.RenderTimeline("", 72, "cycles"))
			fmt.Println("DROM scenario (cycles/µs):")
			fmt.Println(drom.Tracer.RenderTimeline("", 72, "cycles"))
			if err := exportTraces("fig13-serial", serial); err != nil {
				return err
			}
			if err := exportTraces("fig13-drom", drom); err != nil {
				return err
			}
			if err := writeSVG("fig13-serial-timeline",
				workload.TimelineGantt(serial.Tracer, "Figure 13: UC2 Serial", 240).SVG()); err != nil {
				return err
			}
			if err := writeSVG("fig13-drom-timeline",
				workload.TimelineGantt(drom.Tracer, "Figure 13: UC2 DROM", 240).SVG()); err != nil {
				return err
			}
		}
		if want("fig14") {
			fmt.Println(workload.Figure14(serial, drom))
		}
	}
	if want("fig15") {
		f, err := workload.Figure15()
		if err != nil {
			return err
		}
		if err := printFig("fig15", f); err != nil {
			return err
		}
	}
	return nil
}

// figure2 narrates the SLURM launch protocol on a live mini-run.
func figure2(w io.Writer) error {
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
func figure3() error {
	fmt.Println("== Figure 3: In-situ analytics schematic (resource shares over time) ==")
	sc := workload.UC1("nest", apps.Config{Ranks: 2, Threads: 16}, "pils", apps.Config{Ranks: 2, Threads: 4}, true)
	for _, pol := range []slurm.Policy{slurm.PolicySerial, slurm.PolicyDROM} {
		res := workload.Run(sc, pol)
		if res.Err != nil {
			return res.Err
		}
		fmt.Printf("--- %s scenario ---\n", pol)
		var s metrics.Series
		s.Label = "end (s)"
		for _, j := range res.Records.Jobs {
			s.Add(j.Name, j.End)
		}
		fmt.Print(metrics.Table(s))
	}
	fmt.Println()
	return nil
}
