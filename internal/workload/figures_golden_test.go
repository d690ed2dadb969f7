package workload

import (
	"errors"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// figureGoldenPath pins every series the paper's evaluation plots —
// Figures 4–15 and Table 1 — as produced by the builtin controller
// path (serial, DROM). Each figure is recorded twice: its printed form
// (FigureData.String, what cmd/figures shows) and every point at full
// float precision, so a decision that moves a time by less than the
// table's one decimal still moves the golden. Generated before the
// one-cycle-skeleton refactor of slurm.Controller and never
// re-baselined by it. Regenerate (only after an intentional change of
// the paper model) with:
//
//	UPDATE_FIGURE_GOLDEN=1 go test ./internal/workload -run TestFigureSeriesGolden
const figureGoldenPath = "testdata/figure_series.golden"

// figureSeries is how many series a row's figures have where that is
// fixed by what it shows rather than by its grid.
var figureSeries = map[string]int{"table1": 4, "fig13": 2, "fig14": 2}

// renderFigure is one figure's golden block.
func renderFigure(f FigureData) string {
	var sb strings.Builder
	sb.WriteString(f.String())
	for _, s := range f.Series {
		sb.WriteString("# " + s.Label + ":")
		for _, p := range s.Points {
			sb.WriteString(" " + strconv.FormatFloat(p.Y, 'g', -1, 64))
		}
		sb.WriteByte('\n')
	}
	sb.WriteByte('\n')
	return sb.String()
}

// TestFigureSeriesGolden builds every row of the figure table on one
// execution of the runs they read and checks each row's shape before
// its figures are pinned.
func TestFigureSeriesGolden(t *testing.T) {
	var keys []string
	for _, f := range Figures() {
		keys = append(keys, f.Runs...)
	}
	rs := RunPaper(keys...)
	var got strings.Builder
	for _, f := range Figures() {
		figs, err := f.Build(rs)
		if err != nil {
			t.Fatal(err)
		}
		if f.Charts != nil && len(f.Charts) != len(figs) {
			t.Errorf("%s: %d charts for %d figures", f.ID, len(f.Charts), len(figs))
		}
		for _, fig := range figs {
			if want := figureSeries[f.ID]; want != 0 && len(fig.Series) != want {
				t.Errorf("%s: %d series, want %d", f.ID, len(fig.Series), want)
			}
			got.WriteString(renderFigure(fig))
		}
	}
	checkGolden(t, figureGoldenPath, "UPDATE_FIGURE_GOLDEN", "figure series", got.String())
}

// buildRow builds the figure-table row id on the runs it reads.
func buildRow(t *testing.T, id string) []FigureData {
	t.Helper()
	i := slices.IndexFunc(figures, func(f Figure) bool { return f.ID == id })
	figs, err := figures[i].Build(RunPaper(figures[i].Runs...))
	if err != nil {
		t.Fatal(err)
	}
	return figs
}

// TestFigureBuildNamesBadRun: a run a row reads that is missing, failed
// or lacks a job the row reads is an error naming the figure and the
// run, not a figure built on zeros.
func TestFigureBuildNamesBadRun(t *testing.T) {
	const key = "uc1/nest1+pils2/drom"
	fig6 := figures[slices.IndexFunc(figures, func(f Figure) bool { return f.ID == "fig6" })]
	rs := RunPaper(fig6.Runs...)
	for _, tc := range []struct {
		edit func(r *Result) bool // false drops the run
		want string
	}{
		{func(*Result) bool { return false }, "figure fig6: no run " + key},
		{func(r *Result) bool { r.Err = errors.New("boom"); return true }, "figure fig6: run " + key + ": boom"},
		{func(r *Result) bool {
			r.Records.Jobs = slices.DeleteFunc(slices.Clone(r.Records.Jobs),
				func(j metrics.JobRecord) bool { return j.Name == "pils" })
			return true
		}, "figure fig6: run " + key + " has no job pils"},
	} {
		bad := maps.Clone(rs)
		r := bad[key]
		if tc.edit(&r) {
			bad[key] = r
		} else {
			delete(bad, key)
		}
		if _, err := fig6.Build(bad); err == nil || err.Error() != tc.want {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
	}
}
