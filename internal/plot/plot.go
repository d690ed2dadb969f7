// Package plot renders the regenerated figures as standalone SVG
// images using only the standard library: grouped bar charts for the
// run-time/response comparisons (Figures 4, 6-12, 15) and Gantt-style
// timelines for the trace figures (Figures 3, 5, 13). The output is
// deterministic, so the SVGs diff cleanly across runs.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// The figure sizes in pixels: every chart is chartW wide, a bar chart
// chartH tall and a timeline row ganttRowH tall.
const (
	chartW    = 900
	chartH    = 420
	ganttRowH = 14
)

// palette is a color cycle for series/jobs.
var palette = []string{
	"#4472c4", "#ed7d31", "#a5a5a5", "#ffc000", "#5b9bd5", "#70ad47",
}

// escape makes a string safe for SVG text nodes.
func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

// BarSeries is one legend entry of a grouped bar chart.
type BarSeries struct {
	Label  string
	Values []float64 // one per X label; NaN skips the bar
}

// BarChart describes a grouped bar chart.
type BarChart struct {
	Title   string
	YLabel  string
	XLabels []string
	Series  []BarSeries
}

// SVG renders the chart.
func (c BarChart) SVG() string {
	w, h := chartW, chartH
	marginL, marginR, marginT, marginB := 70, 20, 40, 110
	plotW := w - marginL - marginR
	plotH := h - marginT - marginB

	var ymax float64
	for _, s := range c.Series {
		for _, v := range s.Values {
			if !math.IsNaN(v) && v > ymax {
				ymax = v
			}
		}
	}
	if ymax <= 0 {
		ymax = 1
	}
	ymax *= 1.08 // headroom

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n", w, h)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&sb, `<text x="%d" y="24" font-size="16" text-anchor="middle">%s</text>`+"\n", w/2, escape(c.Title))

	// Y axis with 5 gridlines.
	for i := 0; i <= 5; i++ {
		v := ymax * float64(i) / 5
		y := marginT + plotH - int(float64(plotH)*float64(i)/5)
		fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ddd"/>`+"\n", marginL, y, marginL+plotW, y)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="11" text-anchor="end">%.0f</text>`+"\n", marginL-6, y+4, v)
	}
	if c.YLabel != "" {
		fmt.Fprintf(&sb, `<text x="16" y="%d" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`+"\n",
			marginT+plotH/2, marginT+plotH/2, escape(c.YLabel))
	}

	// Bars.
	nGroups := len(c.XLabels)
	nSeries := len(c.Series)
	if nGroups > 0 && nSeries > 0 {
		groupW := float64(plotW) / float64(nGroups)
		barW := groupW * 0.8 / float64(nSeries)
		for gi, xl := range c.XLabels {
			gx := float64(marginL) + float64(groupW*float64(gi))
			for si, s := range c.Series {
				if gi >= len(s.Values) || math.IsNaN(s.Values[gi]) {
					continue
				}
				v := s.Values[gi]
				bh := int(float64(plotH) * v / ymax)
				x := gx + float64(groupW*0.1) + float64(barW*float64(si))
				y := marginT + plotH - bh
				fmt.Fprintf(&sb, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s %s = %.1f</title></rect>`+"\n",
					x, y, barW*0.92, bh, palette[si%len(palette)], escape(s.Label), escape(xl), v)
			}
			// Rotated x label.
			lx := gx + float64(groupW/2)
			ly := float64(marginT + plotH + 12)
			fmt.Fprintf(&sb, `<text x="%.1f" y="%.1f" font-size="10" text-anchor="end" transform="rotate(-35 %.1f %.1f)">%s</text>`+"\n",
				lx, ly, lx, ly, escape(xl))
		}
	}

	// Legend.
	lx := marginL
	for si, s := range c.Series {
		y := h - 16
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="12" height="12" fill="%s"/>`+"\n", lx, y-10, palette[si%len(palette)])
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="12">%s</text>`+"\n", lx+16, y, escape(s.Label))
		lx += 16 + 8*len(s.Label) + 24
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}

// GanttSpan is one colored interval of a Gantt row.
type GanttSpan struct {
	T0, T1 float64
	// Intensity in [0,1] scales the row color (utilization shading).
	Intensity float64
}

// GanttRow is one timeline row.
type GanttRow struct {
	Label string
	Color string // empty: assigned from the palette by group
	Group int    // color group (e.g. job index)
	Spans []GanttSpan
}

// Gantt describes a timeline figure.
type Gantt struct {
	Title  string
	XLabel string
	Rows   []GanttRow
	T0, T1 float64 // time range; zero values auto-compute
}

// SVG renders the timeline.
func (g Gantt) SVG() string {
	w, rowH := chartW, ganttRowH
	marginL, marginR, marginT, marginB := 170, 20, 40, 40
	plotW := w - marginL - marginR
	h := marginT + rowH*len(g.Rows) + marginB

	t0, t1 := g.T0, g.T1
	if t1 <= t0 {
		t0, t1 = math.Inf(1), math.Inf(-1)
		for _, r := range g.Rows {
			for _, s := range r.Spans {
				t0 = math.Min(t0, s.T0)
				t1 = math.Max(t1, s.T1)
			}
		}
		if t1 <= t0 {
			t0, t1 = 0, 1
		}
	}
	xOf := func(t float64) float64 {
		return float64(marginL) + float64(plotW)*(t-t0)/(t1-t0)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`+"\n", w, h)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&sb, `<text x="%d" y="24" font-size="16" text-anchor="middle">%s</text>`+"\n", w/2, escape(g.Title))

	for ri, r := range g.Rows {
		y := marginT + ri*rowH
		color := r.Color
		if color == "" {
			color = palette[r.Group%len(palette)]
		}
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="9" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+rowH-4, escape(r.Label))
		for _, s := range r.Spans {
			x0, x1 := xOf(s.T0), xOf(s.T1)
			if x1-x0 < 0.3 {
				x1 = x0 + 0.3
			}
			op := s.Intensity
			if op <= 0 {
				op = 1
			}
			if op > 1 {
				op = 1
			}
			fmt.Fprintf(&sb, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" fill-opacity="%.2f"/>`+"\n",
				x0, y+1, x1-x0, rowH-2, color, op)
		}
	}
	// Time axis.
	axisY := marginT + rowH*len(g.Rows) + 14
	for i := 0; i <= 5; i++ {
		t := t0 + (t1-t0)*float64(i)/5
		fmt.Fprintf(&sb, `<text x="%.1f" y="%d" font-size="10" text-anchor="middle">%.0f</text>`+"\n", xOf(t), axisY, t)
	}
	if g.XLabel != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="12" text-anchor="middle">%s</text>`+"\n",
			marginL+plotW/2, axisY+18, escape(g.XLabel))
	}
	sb.WriteString("</svg>\n")
	return sb.String()
}
