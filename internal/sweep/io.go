package sweep

// Summary rendering: the slurmsim CLI surface of the sweep engine.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteJSON renders the summary as indented JSON.
func (s Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV renders one row per experiment.
func (s Summary) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"index", "policy", "seed", "jobs", "wall_seconds", "sched_cycles", "sim_events",
		"makespan_s", "mean_wait_s", "p95_wait_s", "mean_resp_s", "mean_bsld",
		"failed", "cancelled", "spilled", "requeues", "node_failed", "dropped", "error",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range s.Results {
		if err := cw.Write([]string{
			strconv.Itoa(r.Index), r.Policy, strconv.FormatInt(r.Seed, 10),
			strconv.Itoa(r.Jobs), f(r.WallSeconds),
			strconv.FormatInt(r.Cycles, 10), strconv.FormatInt(r.Events, 10),
			f(r.Stats.Makespan), f(r.Stats.MeanWait), f(r.Stats.P95Wait),
			f(r.Stats.MeanResponse), f(r.Stats.MeanSlowdown),
			strconv.Itoa(r.Stats.Failed), strconv.Itoa(r.Stats.Cancelled),
			strconv.Itoa(r.Stats.Spilled), strconv.Itoa(r.Stats.Requeues),
			strconv.Itoa(r.Stats.NodeFailed), strconv.Itoa(r.Dropped.Total()), r.Err,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table renders an aligned text table like the paper's figures: one
// row per (seed, policy) with the headline scheduler metrics.
func (s Summary) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %-17s %6s %8s %10s %12s %12s %12s %10s\n",
		"seed", "policy", "jobs", "wall-s", "cycles", "makespan-s", "mean-wait-s", "mean-resp-s", "mean-bsld")
	for _, r := range s.Results {
		if r.Err != "" {
			fmt.Fprintf(&sb, "%-5d %-17s ERROR %s\n", r.Seed, r.Policy, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-5d %-17s %6d %8.2f %10d %12.0f %12.1f %12.1f %10.2f\n",
			r.Seed, r.Policy, r.Jobs, r.WallSeconds, r.Cycles,
			r.Stats.Makespan, r.Stats.MeanWait, r.Stats.MeanResponse, r.Stats.MeanSlowdown)
		if r.Stats.Failed > 0 || r.Stats.Cancelled > 0 || r.Stats.Spilled > 0 ||
			r.Stats.Requeues > 0 || r.Stats.NodeFailed > 0 || r.Dropped.Total() > 0 {
			line := fmt.Sprintf("failed=%d cancelled=%d", r.Stats.Failed, r.Stats.Cancelled)
			if r.Stats.Spilled > 0 {
				line += fmt.Sprintf(" spilled=%d", r.Stats.Spilled)
			}
			if r.Stats.Requeues > 0 || r.Stats.NodeFailed > 0 {
				line += fmt.Sprintf(" requeued=%d node_failed=%d down_node=%.0fs",
					r.Stats.Requeues, r.Stats.NodeFailed, r.Stats.DownNodeS)
			}
			if r.Dropped.Total() > 0 {
				line += fmt.Sprintf(" trace: %s", r.Dropped)
			}
			fmt.Fprintf(&sb, "      %-17s %s\n", "", line)
		}
		for _, ps := range r.Partitions {
			fmt.Fprintf(&sb, "      %-17s %s\n", "", ps)
		}
	}
	fmt.Fprintf(&sb, "%d experiments on %d workers in %.2fs wall\n",
		len(s.Results), s.Workers, s.WallSeconds)
	return sb.String()
}
