package trace

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV exports the trace in a flat CSV form (one row per segment)
// for external plotting, the role Extrae trace files play in the
// paper's toolchain. Columns: job, rank, thread, cpu, t0, t1, state,
// ipc, cycles_per_us.
func (t *Tracer) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"job", "rank", "thread", "cpu", "t0", "t1", "state", "ipc", "cycles_per_us"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for s := range t.All() {
		row := []string{
			s.Job,
			strconv.Itoa(s.Rank),
			strconv.Itoa(s.Thread),
			strconv.Itoa(s.CPU),
			formatFloat(s.T0),
			formatFloat(s.T1),
			s.State.String(),
			formatFloat(s.IPC),
			formatFloat(s.CyclesPerUs),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 9, 64)
}
