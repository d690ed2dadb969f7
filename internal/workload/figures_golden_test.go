package workload

import (
	"os"
	"strconv"
	"strings"
	"testing"
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

func TestFigureSeriesGolden(t *testing.T) {
	var figs []FigureData
	add := func(err error, fs ...FigureData) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fs...)
	}
	figs = append(figs, Table1Data())
	f4, err := Figure4()
	add(err, f4)
	_, f5, err := Figure5()
	add(err, f5)
	f6, err := Figure6()
	add(err, f6)
	f7l, f7r, err := Figure7()
	add(err, f7l, f7r)
	f8, err := Figure8()
	add(err, f8)
	f9, err := Figure9()
	add(err, f9)
	f10, err := Figure10()
	add(err, f10)
	f11l, f11r, err := Figure11()
	add(err, f11l, f11r)
	f12, err := Figure12()
	add(err, f12)
	serial, drom, f13, err := Figure13()
	add(err, f13, Figure14(serial, drom))
	f15, err := Figure15()
	add(err, f15)

	var got strings.Builder
	for _, f := range figs {
		got.WriteString(renderFigure(f))
	}
	if os.Getenv("UPDATE_FIGURE_GOLDEN") != "" {
		if err := os.WriteFile(figureGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", figureGoldenPath)
		return
	}
	want, err := os.ReadFile(figureGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("figure series diverged from the golden at line %d:\n  got  %q\n  want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("figure listing length changed: got %d lines, want %d", len(gl), len(wl))
}
