package trace

import (
	"encoding/csv"
	"fmt"
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
	for _, s := range t.Segments() {
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

// ReadCSV parses a trace previously written by WriteCSV.
func ReadCSV(r io.Reader) (*Tracer, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return New(), nil
	}
	t := New()
	for i, row := range rows[1:] {
		if len(row) != 9 {
			return nil, fmt.Errorf("trace: row %d has %d columns", i+2, len(row))
		}
		var seg Segment
		seg.Job = row[0]
		if seg.Rank, err = strconv.Atoi(row[1]); err != nil {
			return nil, fmt.Errorf("trace: row %d rank: %v", i+2, err)
		}
		if seg.Thread, err = strconv.Atoi(row[2]); err != nil {
			return nil, fmt.Errorf("trace: row %d thread: %v", i+2, err)
		}
		if seg.CPU, err = strconv.Atoi(row[3]); err != nil {
			return nil, fmt.Errorf("trace: row %d cpu: %v", i+2, err)
		}
		if seg.T0, err = strconv.ParseFloat(row[4], 64); err != nil {
			return nil, fmt.Errorf("trace: row %d t0: %v", i+2, err)
		}
		if seg.T1, err = strconv.ParseFloat(row[5], 64); err != nil {
			return nil, fmt.Errorf("trace: row %d t1: %v", i+2, err)
		}
		switch row[6] {
		case "run":
			seg.State = Run
		case "idle":
			seg.State = Idle
		case "removed":
			seg.State = Removed
		default:
			return nil, fmt.Errorf("trace: row %d unknown state %q", i+2, row[6])
		}
		if seg.IPC, err = strconv.ParseFloat(row[7], 64); err != nil {
			return nil, fmt.Errorf("trace: row %d ipc: %v", i+2, err)
		}
		if seg.CyclesPerUs, err = strconv.ParseFloat(row[8], 64); err != nil {
			return nil, fmt.Errorf("trace: row %d cycles: %v", i+2, err)
		}
		t.Add(seg)
	}
	return t, nil
}
