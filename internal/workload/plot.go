package workload

import (
	"fmt"
	"math"

	"repro/internal/plot"
	"repro/internal/trace"
)

// Chart converts a FigureData into a grouped bar chart (the visual
// form of Figures 4, 6-12 and 15).
func (f FigureData) Chart() plot.BarChart {
	c := plot.BarChart{Title: fmt.Sprintf("%s: %s", f.ID, f.Title), YLabel: "seconds"}
	// X labels in first-appearance order across series.
	seen := map[string]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				c.XLabels = append(c.XLabels, p.X)
			}
		}
	}
	idx := map[string]int{}
	for i, x := range c.XLabels {
		idx[x] = i
	}
	for _, s := range f.Series {
		bs := plot.BarSeries{Label: s.Label, Values: make([]float64, len(c.XLabels))}
		for i := range bs.Values {
			bs.Values[i] = math.NaN()
		}
		for _, p := range s.Points {
			bs.Values[idx[p.X]] = p.Y
		}
		c.Series = append(c.Series, bs)
	}
	return c
}

// TimelineGantt converts a trace into a Gantt figure: one row per
// (job, rank, thread), bucketed utilization as span intensity — the
// visual form of the Figure 5/13 Paraver views.
func TimelineGantt(tr *trace.Tracer, title string, buckets int) plot.Gantt {
	if buckets <= 0 {
		buckets = 240
	}
	lo, hi := tr.Span()
	g := plot.Gantt{Title: title, XLabel: "time (s)", T0: lo, T1: hi}
	if hi <= lo {
		return g
	}
	jobIdx := map[string]int{}
	for _, j := range tr.Jobs() {
		jobIdx[j] = len(jobIdx)
	}
	bw := (hi - lo) / float64(buckets)
	tr.Bucket(lo, hi, buckets, func(s trace.Segment) (float64, bool) {
		if s.State == trace.Run {
			return 1, true
		}
		return 0, s.State != trace.Removed
	}, func(label, job string, sum, weight []float64) {
		row := plot.GanttRow{Label: label, Group: jobIdx[job]}
		for b := range sum {
			if weight[b] <= 0 {
				continue
			}
			util := sum[b] / weight[b]
			if util <= 0.02 {
				continue
			}
			row.Spans = append(row.Spans, plot.GanttSpan{
				T0:        lo + float64(bw*float64(b)),
				T1:        lo + float64(bw*float64(b+1)),
				Intensity: util,
			})
		}
		g.Rows = append(g.Rows, row)
	})
	return g
}
