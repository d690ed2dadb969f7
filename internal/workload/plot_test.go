package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func TestFigureDataChart(t *testing.T) {
	var a, b metrics.Series
	a.Label = "Serial"
	a.Add("x1", 10)
	a.Add("x2", 20)
	b.Label = "DROM"
	b.Add("x1", 8) // x2 missing: NaN bar
	f := FigureData{ID: "Figure 4", Title: "demo", Series: []metrics.Series{a, b}}
	c := f.Chart()
	if len(c.XLabels) != 2 || c.XLabels[0] != "x1" {
		t.Fatalf("xlabels = %v", c.XLabels)
	}
	if len(c.Series) != 2 || c.Series[0].Values[1] != 20 {
		t.Fatalf("series = %+v", c.Series)
	}
	if !math.IsNaN(c.Series[1].Values[1]) {
		t.Errorf("missing point should be NaN, got %v", c.Series[1].Values[1])
	}
	svg := c.SVG()
	if !strings.Contains(svg, "Figure 4") {
		t.Error("title missing from SVG")
	}
}

func TestTimelineGantt(t *testing.T) {
	tr := trace.New()
	// Job a: thread 0 busy 0..10, thread 1 busy 0..5 then idle, thread 2
	// removed (no row); job b: one thread busy 2..8.
	tr.AddSpan(0, 10, 1, false, []trace.Segment{
		{Job: "a", Rank: 0, Thread: 0, CPU: 0, T1: 1, State: trace.Run},
		{Job: "a", Rank: 0, Thread: 1, CPU: 1, T1: 0.5, State: trace.Run},
		{Job: "a", Rank: 0, Thread: 2, CPU: -1, T1: 1, State: trace.Removed},
	}, nil)
	tr.AddSpan(2, 6, 1, false, []trace.Segment{{Job: "b", Rank: 0, Thread: 0, CPU: 8, T1: 1, State: trace.Run}}, nil)
	g := TimelineGantt(tr, "demo", 10)
	if len(g.Rows) != 3 {
		t.Fatalf("rows = %d", len(g.Rows))
	}
	// Fully busy row: 10 spans at intensity 1.
	if len(g.Rows[0].Spans) != 10 || g.Rows[0].Spans[0].Intensity != 1 {
		t.Errorf("busy row spans = %+v", g.Rows[0].Spans)
	}
	// Jobs get distinct color groups.
	if g.Rows[0].Group == g.Rows[2].Group {
		t.Error("jobs share a color group")
	}
	svg := g.SVG()
	if !strings.Contains(svg, "a r0 t00") || !strings.Contains(svg, "b r0 t00") {
		t.Error("row labels missing")
	}
	// Degenerate trace.
	if got := TimelineGantt(trace.New(), "empty", 10); len(got.Rows) != 0 {
		t.Errorf("empty trace rows = %d", len(got.Rows))
	}
}
