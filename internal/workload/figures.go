package workload

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/apps"
	"repro/internal/metrics"
	"repro/internal/slurm"
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

// uc1Grid runs the UC1 workload grid for one simulator+analytics pair
// and hands each (config combo, serial result, drom result) to visit.
func uc1Grid(simName, anaName string, visit func(label string, serial, drom Result)) error {
	simConfs := apps.Table1(simName)
	anaConfs := apps.Table1(anaName)
	for ai, anaCfg := range anaConfs {
		for si, simCfg := range simConfs {
			label := fmt.Sprintf("%s C%d + %s C%d", simName, si+1, anaName, ai+1)
			serial, drom := Compare(UC1(simName, simCfg, anaName, anaCfg, false))
			if serial.Err != nil {
				return fmt.Errorf("%s serial: %w", label, serial.Err)
			}
			if drom.Err != nil {
				return fmt.Errorf("%s drom: %w", label, drom.Err)
			}
			visit(label, serial, drom)
		}
	}
	return nil
}

// runtimeFigure builds a total-run-time comparison figure (Figures 4,
// 9 and the left half of 7/11).
func runtimeFigure(id, simName, anaName string) (FigureData, error) {
	f := FigureData{
		ID:    id,
		Title: fmt.Sprintf("Total run time of %s + %s workload (s)", simName, anaName),
	}
	var serialS, dromS metrics.Series
	serialS.Label = "Serial"
	dromS.Label = "DROM"
	err := uc1Grid(simName, anaName, func(label string, serial, drom Result) {
		serialS.Add(label, serial.Records.TotalRunTime())
		dromS.Add(label, drom.Records.TotalRunTime())
	})
	f.Series = []metrics.Series{serialS, dromS}
	return f, err
}

// responseFigure builds a per-job response-time figure (Figures 6, 10
// and the right half of 7/11).
func responseFigure(id, simName, anaName string) (FigureData, error) {
	f := FigureData{
		ID:    id,
		Title: fmt.Sprintf("Individual response time of %s and %s (s)", simName, anaName),
	}
	mk := func(label string) metrics.Series { return metrics.Series{Label: label} }
	simSer, simDrom := mk(simName+"-Serial"), mk(simName+"-DROM")
	anaSer, anaDrom := mk(anaName+"-Serial"), mk(anaName+"-DROM")
	err := uc1Grid(simName, anaName, func(label string, serial, drom Result) {
		if j, ok := serial.Records.Job(simName); ok {
			simSer.Add(label, j.ResponseTime())
		}
		if j, ok := drom.Records.Job(simName); ok {
			simDrom.Add(label, j.ResponseTime())
		}
		if j, ok := serial.Records.Job(anaName); ok {
			anaSer.Add(label, j.ResponseTime())
		}
		if j, ok := drom.Records.Job(anaName); ok {
			anaDrom.Add(label, j.ResponseTime())
		}
	})
	f.Series = []metrics.Series{simSer, simDrom, anaSer, anaDrom}
	return f, err
}

// avgResponseFigure builds the average-response figure over every
// analytics workload of one simulator (Figures 8 and 12).
func avgResponseFigure(id, simName string) (FigureData, error) {
	f := FigureData{
		ID:    id,
		Title: fmt.Sprintf("Average response time of %s workloads (s)", simName),
	}
	var serialS, dromS metrics.Series
	serialS.Label = "Serial"
	dromS.Label = "DROM"
	for _, anaName := range []string{"pils", "stream"} {
		err := uc1Grid(simName, anaName, func(label string, serial, drom Result) {
			serialS.Add(label, serial.Records.AvgResponseTime())
			dromS.Add(label, drom.Records.AvgResponseTime())
		})
		if err != nil {
			return f, err
		}
	}
	f.Series = []metrics.Series{serialS, dromS}
	return f, nil
}

// Figure4 regenerates the NEST+Pils total run time comparison.
func Figure4() (FigureData, error) { return runtimeFigure("Figure 4", "nest", "pils") }

// Figure6 regenerates the NEST+Pils individual response times.
func Figure6() (FigureData, error) { return responseFigure("Figure 6", "nest", "pils") }

// Figure7 regenerates the NEST+STREAM run time and response time.
func Figure7() (FigureData, FigureData, error) {
	rt, err := runtimeFigure("Figure 7 (left)", "nest", "stream")
	if err != nil {
		return rt, FigureData{}, err
	}
	resp, err := responseFigure("Figure 7 (right)", "nest", "stream")
	return rt, resp, err
}

// Figure8 regenerates the NEST workloads average response time.
func Figure8() (FigureData, error) { return avgResponseFigure("Figure 8", "nest") }

// Figure9 regenerates the CoreNeuron+Pils total run time comparison.
func Figure9() (FigureData, error) { return runtimeFigure("Figure 9", "coreneuron", "pils") }

// Figure10 regenerates the CoreNeuron+Pils response times.
func Figure10() (FigureData, error) { return responseFigure("Figure 10", "coreneuron", "pils") }

// Figure11 regenerates the CoreNeuron+STREAM run/response times.
func Figure11() (FigureData, FigureData, error) {
	rt, err := runtimeFigure("Figure 11 (left)", "coreneuron", "stream")
	if err != nil {
		return rt, FigureData{}, err
	}
	resp, err := responseFigure("Figure 11 (right)", "coreneuron", "stream")
	return rt, resp, err
}

// Figure12 regenerates the CoreNeuron workloads average response time.
func Figure12() (FigureData, error) { return avgResponseFigure("Figure 12", "coreneuron") }

// Figure13 runs UC2 traced under both policies and returns the results
// plus the total-run-time comparison.
func Figure13() (serial, drom Result, fig FigureData, err error) {
	serial, drom = Compare(UC2(true))
	if err = errors.Join(serial.Err, drom.Err); err != nil {
		return serial, drom, fig, err
	}
	return serial, drom, uc2Figure("Figure 13", "UC2 total run time and cycles/µs traces",
		"uc2 total run time", "total run time", "uc2-total", serial, drom), nil
}

// uc2Figure compares what claim id reads off the UC2 runs, with the
// claim's measure against the paper's figure as its note.
func uc2Figure(id, title, row, what, claimID string, serial, drom Result) FigureData {
	c := claims[slices.IndexFunc(claims, func(c Claim) bool { return c.ID == claimID })]
	s, d := c.read(&serial, c.Job), c.read(&drom, c.Job)
	fig := FigureData{ID: id, Title: title, Series: []metrics.Series{{Label: "Serial"}, {Label: "DROM"}},
		Notes: []string{fmt.Sprintf("DROM improves %s by %.1f%% (paper: %s)", what, c.combine(append(s, d...))[0], c.Paper)}}
	fig.Series[0].Add(row, s[0])
	fig.Series[1].Add(row, d[0])
	return fig
}

// Figure14 derives the IPC histogram statistics of UC2 (mean observed
// IPC per application per scenario).
func Figure14(serial, drom Result) FigureData {
	var s, d metrics.Series
	s.Label = "Serial"
	d.Label = "DROM"
	for _, job := range []string{"nest", "coreneuron"} {
		s.Add(job+" mean IPC (x100)", 100*meanIPC(serial, job))
		d.Add(job+" mean IPC (x100)", 100*meanIPC(drom, job))
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

func meanIPC(r Result, job string) float64 {
	if r.Tracer == nil {
		return 0
	}
	var wsum, w float64
	for seg := range r.Tracer.All() {
		if seg.Job != job || seg.IPC <= 0 {
			continue
		}
		dur := seg.Duration()
		wsum += float64(seg.IPC * dur)
		w += dur
	}
	if w == 0 {
		return 0
	}
	return wsum / w
}

// Figure15 regenerates the UC2 average response time comparison.
func Figure15() (FigureData, error) {
	serial, drom := Compare(UC2(false))
	if err := errors.Join(serial.Err, drom.Err); err != nil {
		return FigureData{}, err
	}
	return uc2Figure("Figure 15", "UC2 average response time (s)",
		"uc2 avg response time", "average response time", "uc2-avg-resp", serial, drom), nil
}

// Figure5 runs a traced NEST+Pils Conf. 2 workload under DROM and
// returns the mid-overlap per-thread utilization of the simulator
// (the imbalance view of Figure 5), plus the result for rendering.
func Figure5() (Result, FigureData, error) {
	drom := Run(figure5Scenario(), slurm.PolicyDROM)
	if drom.Err != nil {
		return drom, FigureData{}, drom.Err
	}
	fig := FigureData{
		ID:     "Figure 5",
		Title:  "NEST rank-0 thread utilization while shrunk (static partition imbalance)",
		Series: []metrics.Series{figure5Series(drom)},
		Notes: []string{
			"threads 0-3 absorb the removed thread's chunks (utilization 1.0); the rest idle part of each iteration; thread 15 removed",
		},
	}
	return drom, fig, nil
}

// figure5Scenario is Figure 5's run: NEST Conf. 1 shrunk by Pils
// Conf. 2 (one thread per rank), traced.
func figure5Scenario() Scenario {
	return UC1("nest", apps.Config{Ranks: 2, Threads: 16}, "pils", apps.Config{Ranks: 2, Threads: 1}, true)
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

// Table1Data prints Table 1 (use case application configurations).
func Table1Data() FigureData {
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
