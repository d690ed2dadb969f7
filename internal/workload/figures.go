package workload

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/apps"
	"repro/internal/metrics"
)

// FigureData is the regenerated content of one paper figure: labeled
// series ready to print as a table.
type FigureData struct {
	ID     string
	Title  string
	Series []metrics.Series
	Notes  []string
}

func (f FigureData) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", f.ID, f.Title)
	sb.WriteString(metrics.Table(f.Series...))
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// figureOf builds one figure from the paper's runs, by key.
type figureOf = func(rs map[string]Result) FigureData

// Figure is one row of the paper's figure table: an artifact
// cmd/figures regenerates, the paper runs it reads (RunPaper keys) and
// what it exports.
type Figure struct {
	ID   string // cmd/figures' -id
	Runs []string
	// Charts names the bar-chart SVG of each figure Build returns; a
	// row drawn otherwise (a table, a timeline) has none.
	Charts []string
	Traces []Trace
	jobs   []string // read off each of Runs
	build  []figureOf
}

// Trace is one traced run a row shows as an ASCII timeline of Job's
// Metric (under Heading, when set) and exports as trace files named
// Name and a Gantt SVG named Name-timeline, titled Title.
type Trace struct {
	Run, Name, Heading, Job, Metric, Title string
}

// Build turns the runs rs holds into the row's figures. A run the row
// reads that is missing, failed or lacks a job it reads is an error
// naming the figure and the run.
func (f Figure) Build(rs map[string]Result) ([]FigureData, error) {
	for _, key := range f.Runs {
		if _, err := checkRun(rs, key, f.jobs...); err != nil {
			return nil, fmt.Errorf("figure %s: %w", f.ID, err)
		}
	}
	figs := make([]FigureData, len(f.build))
	for i, b := range f.build {
		figs[i] = b(rs)
	}
	return figs, nil
}

// Figures returns the paper's figure table in print order, one row per
// artifact. cmd/figures narrates Figures 2 and 3 itself: Figure 2 on a
// run of its own, Figure 3 on the runs its row reads.
func Figures() []Figure { return slices.Clone(figures) }

var figures = []Figure{
	{ID: "table1", build: []figureOf{table1}},
	{ID: "fig2"},
	{ID: "fig3", Runs: serialDROM("fig3")},
	{ID: "fig4", Runs: uc1Runs("nest", "pils"), Charts: []string{"fig4"},
		build: []figureOf{runtimeFigure("Figure 4", "nest", "pils")}},
	{ID: "fig5", Runs: []string{"fig5/drom"}, build: []figureOf{figure5},
		Traces: []Trace{{Run: "fig5/drom", Name: "fig5", Job: "nest", Metric: "util", Title: "Figure 5: NEST thread utilization (DROM)"}}},
	{ID: "fig6", Runs: uc1Runs("nest", "pils"), jobs: []string{"nest", "pils"}, Charts: []string{"fig6"},
		build: []figureOf{responseFigure("Figure 6", "nest", "pils")}},
	{ID: "fig7", Runs: uc1Runs("nest", "stream"), jobs: []string{"nest", "stream"}, Charts: []string{"fig7-runtime", "fig7-response"},
		build: []figureOf{runtimeFigure("Figure 7 (left)", "nest", "stream"), responseFigure("Figure 7 (right)", "nest", "stream")}},
	{ID: "fig8", Runs: uc1Runs("nest", "pils", "stream"), Charts: []string{"fig8"},
		build: []figureOf{avgResponseFigure("Figure 8", "nest")}},
	{ID: "fig9", Runs: uc1Runs("coreneuron", "pils"), Charts: []string{"fig9"},
		build: []figureOf{runtimeFigure("Figure 9", "coreneuron", "pils")}},
	{ID: "fig10", Runs: uc1Runs("coreneuron", "pils"), jobs: []string{"coreneuron", "pils"}, Charts: []string{"fig10"},
		build: []figureOf{responseFigure("Figure 10", "coreneuron", "pils")}},
	{ID: "fig11", Runs: uc1Runs("coreneuron", "stream"), jobs: []string{"coreneuron", "stream"}, Charts: []string{"fig11-runtime", "fig11-response"},
		build: []figureOf{runtimeFigure("Figure 11 (left)", "coreneuron", "stream"), responseFigure("Figure 11 (right)", "coreneuron", "stream")}},
	{ID: "fig12", Runs: uc1Runs("coreneuron", "pils", "stream"), Charts: []string{"fig12"},
		build: []figureOf{avgResponseFigure("Figure 12", "coreneuron")}},
	{ID: "fig13", Runs: serialDROM("uc2-traced"), build: []figureOf{uc2Figure("Figure 13", "UC2 total run time and cycles/µs traces",
		"uc2 total run time", "total run time", "uc2-total", "uc2-traced")},
		Traces: []Trace{
			{Run: "uc2-traced/serial", Name: "fig13-serial", Heading: "Serial scenario (cycles/µs):", Metric: "cycles", Title: "Figure 13: UC2 Serial"},
			{Run: "uc2-traced/drom", Name: "fig13-drom", Heading: "DROM scenario (cycles/µs):", Metric: "cycles", Title: "Figure 13: UC2 DROM"},
		}},
	{ID: "fig14", Runs: serialDROM("uc2-traced"), jobs: []string{"nest", "coreneuron"}, build: []figureOf{figure14}},
	{ID: "fig15", Runs: serialDROM("uc2"), Charts: []string{"fig15"}, build: []figureOf{uc2Figure("Figure 15", "UC2 average response time (s)",
		"uc2 avg response time", "average response time", "uc2-avg-resp", "uc2")}},
}

// cell is one bar group of a figure: its label and the key of its
// runs, policy left off.
type cell struct{ label, key string }

// uc1Cells lists the UC1 grid of sim with each of anas in the figures'
// order: analytics configuration outer, simulator configuration inner.
func uc1Cells(sim string, anas ...string) []cell {
	var cells []cell
	for _, ana := range anas {
		for ai := range apps.Table1(ana) {
			for si := range apps.Table1(sim) {
				cells = append(cells, cell{fmt.Sprintf("%s C%d + %s C%d", sim, si+1, ana, ai+1), uc1Key(sim, si, ana, ai)})
			}
		}
	}
	return cells
}

// uc1Runs are the keys of uc1Cells' runs under both policies.
func uc1Runs(sim string, anas ...string) []string {
	var keys []string
	for _, c := range uc1Cells(sim, anas...) {
		keys = append(keys, serialDROM(c.key)...)
	}
	return keys
}

// serialDROMFigure plots read off the serial and DROM run of each cell
// as the series Serial and DROM.
func serialDROMFigure(id, title string, cells []cell, read func(*Result) float64) figureOf {
	return func(rs map[string]Result) FigureData {
		serial, drom := metrics.Series{Label: "Serial"}, metrics.Series{Label: "DROM"}
		for _, c := range cells {
			s, d := rs[c.key+"/serial"], rs[c.key+"/drom"]
			serial.Add(c.label, read(&s))
			drom.Add(c.label, read(&d))
		}
		return FigureData{ID: id, Title: title, Series: []metrics.Series{serial, drom}}
	}
}

// runtimeFigure builds a total-run-time comparison figure (Figures 4,
// 9 and the left half of 7/11).
func runtimeFigure(id, sim, ana string) figureOf {
	return serialDROMFigure(id, fmt.Sprintf("Total run time of %s + %s workload (s)", sim, ana),
		uc1Cells(sim, ana), func(r *Result) float64 { return r.Records.TotalRunTime() })
}

// avgResponseFigure builds the average-response figure over every
// analytics workload of one simulator (Figures 8 and 12).
func avgResponseFigure(id, sim string) figureOf {
	return serialDROMFigure(id, fmt.Sprintf("Average response time of %s workloads (s)", sim),
		uc1Cells(sim, "pils", "stream"), func(r *Result) float64 { return r.Records.AvgResponseTime() })
}

// responseFigure builds a per-job response-time figure (Figures 6, 10
// and the right half of 7/11).
func responseFigure(id, sim, ana string) figureOf {
	return func(rs map[string]Result) FigureData {
		f := FigureData{ID: id, Title: fmt.Sprintf("Individual response time of %s and %s (s)", sim, ana)}
		for _, job := range []string{sim, ana} {
			for _, pol := range []string{"Serial", "DROM"} {
				s := metrics.Series{Label: job + "-" + pol}
				for _, c := range uc1Cells(sim, ana) {
					r := rs[c.key+"/"+strings.ToLower(pol)]
					s.Add(c.label, r.job(job).ResponseTime())
				}
				f.Series = append(f.Series, s)
			}
		}
		return f
	}
}

// uc2Figure compares what claim claimID reads off the serial and DROM
// run under key, with the claim's measure against the paper's figure
// as its note.
func uc2Figure(id, title, row, what, claimID, key string) figureOf {
	c := claims[slices.IndexFunc(claims, func(c Claim) bool { return c.ID == claimID })]
	plot := serialDROMFigure(id, title, []cell{{row, key}}, func(r *Result) float64 { return c.read(r, c.Job)[0] })
	return func(rs map[string]Result) FigureData {
		fig := plot(rs)
		gain := c.combine([]float64{fig.Series[0].Points[0].Y, fig.Series[1].Points[0].Y})[0]
		fig.Notes = []string{fmt.Sprintf("DROM improves %s by %.1f%% (paper: %s)", what, gain, c.Paper)}
		return fig
	}
}

// figure14 derives the IPC histogram statistics of UC2 (mean observed
// IPC per application per scenario).
func figure14(rs map[string]Result) FigureData {
	jobs := [2]string{"nest", "coreneuron"}
	sm, dm := meanIPC(rs["uc2-traced/serial"], jobs), meanIPC(rs["uc2-traced/drom"], jobs)
	s, d := metrics.Series{Label: "Serial"}, metrics.Series{Label: "DROM"}
	for i, job := range jobs {
		s.Add(job+" mean IPC (x100)", 100*sm[i])
		d.Add(job+" mean IPC (x100)", 100*dm[i])
	}
	return FigureData{
		ID:     "Figure 14",
		Title:  "UC2 per-application IPC (duration-weighted mean, x100)",
		Series: []metrics.Series{s, d},
		Notes: []string{
			"paper: Serial and DROM IPC comparable; DROM slightly higher for the threads the shrunk app runs on",
		},
	}
}

// meanIPC returns each job's duration-weighted mean IPC over r's trace,
// taking both sums in one walk of its segments.
func meanIPC(r Result, jobs [2]string) (mean [2]float64) {
	if r.Tracer == nil {
		return mean
	}
	var wsum, w [2]float64
	for seg := range r.Tracer.All() {
		if seg.IPC <= 0 {
			continue
		}
		for i, job := range jobs {
			if seg.Job == job {
				dur := seg.Duration()
				wsum[i] += float64(seg.IPC * dur)
				w[i] += dur
				break
			}
		}
	}
	for i := range mean {
		if w[i] != 0 {
			mean[i] = wsum[i] / w[i]
		}
	}
	return mean
}

// figure5 is the mid-overlap per-thread utilization of NEST rank 0
// shrunk by Pils (the imbalance view of Figure 5).
func figure5(rs map[string]Result) FigureData {
	return FigureData{
		ID:     "Figure 5",
		Title:  "NEST rank-0 thread utilization while shrunk (static partition imbalance)",
		Series: []metrics.Series{figure5Series(rs["fig5/drom"])},
		Notes: []string{
			"threads 0-3 absorb the removed thread's chunks (utilization 1.0); the rest idle part of each iteration; thread 15 removed",
		},
	}
}

// figure5Series is the utilization of each NEST rank-0 thread in a
// window inside the overlap (analytics runs ~300 s from t≈300).
func figure5Series(drom Result) metrics.Series {
	util := metrics.Series{Label: "utilization"}
	stats := drom.Tracer.ThreadUtilization("nest", AnalyticsSubmitTime+100, AnalyticsSubmitTime+200)
	for _, st := range stats {
		if st.Rank != 0 {
			continue
		}
		util.Add(fmt.Sprintf("thread %02d", st.Thread), st.Utilization)
	}
	return util
}

// table1 prints Table 1 (use case application configurations).
func table1(map[string]Result) FigureData {
	var rows []metrics.Series
	for _, name := range []string{"nest", "coreneuron", "pils", "stream"} {
		s := metrics.Series{Label: name}
		for ci, cfg := range apps.Table1(name) {
			s.Add(fmt.Sprintf("Conf. %d (ranks)", ci+1), float64(cfg.Ranks))
			s.Add(fmt.Sprintf("Conf. %d (threads)", ci+1), float64(cfg.Threads))
		}
		rows = append(rows, s)
	}
	return FigureData{
		ID:     "Table 1",
		Title:  "Use case application configurations (MPI ranks x OpenMP threads)",
		Series: rows,
	}
}
