package sweep

// Grid-spec parsing and summary rendering: the slurmsim CLI surface
// of the sweep engine.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/hwmodel"
	"repro/internal/sched"
	"repro/internal/workload"
)

// ParseGrid parses a compact grid spec of the form
//
//	policies=fcfs,easy;seeds=1-4;jobs=2000;nodes=4;ia=60
//
// Fields are key=value pairs separated by ';' (or whitespace). Keys:
//
//	policies  comma list of sched policy names, or "all" (default all)
//	sched     one per-partition policy-set spec in the
//	          sched.ParsePolicySet grammar, e.g.
//	          sched=batch=easy,fat=malleable-shrink — repeatable; each
//	          occurrence appends one policy cell to the grid
//	seeds     comma list and/or lo-hi ranges, e.g. "1,3,5-8" (default 1)
//	jobs      synthetic trace length (default 1000)
//	nodes     cluster size (default 4)
//	cluster   partitioned heterogeneous cluster spec, e.g.
//	          batch:4xmn3,fat:2xfat or the "hetero" preset
//	          (hwmodel.ParseCluster grammar; overrides nodes)
//	cancel    synthetic per-job cancellation probability (0..1)
//	fail      synthetic per-job failure probability (0..1)
//	spill     1/true: cross-partition spillover pass
//	spillafter  spillover wait threshold in seconds
//	spilldepth  spillover home-backlog depth threshold
//	nodefaults  deterministic node outage script, entries joined with
//	          '+', e.g. node0:down@100..400+node5:drain@200..300
//	          (slurm.FaultPlan.Script grammar; ';' belongs to this
//	          grid grammar and cannot appear inside the script)
//	mtbf      mean time between seeded node failures in virtual
//	          seconds (0 = off); the fault stream is seeded from each
//	          experiment's trace seed
//	mttr      mean repair time of seeded failures in virtual seconds
//	requeue   per-job requeue cap after node failures (0 = default,
//	          negative = none)
//	ia        mean inter-arrival seconds (default 60)
//	swf       SWF trace file to replay instead of the generator
//	max       truncate an SWF trace to this many jobs
//	stream    1/true: bounded-memory streaming replay
//	check     1/true: per-cycle invariant cross-checks (slow)
func ParseGrid(spec string) (Grid, error) {
	var g Grid
	fields := strings.FieldsFunc(spec, func(r rune) bool {
		return r == ';' || r == ' ' || r == '\t'
	})
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Grid{}, fmt.Errorf("sweep: malformed grid field %q (want key=value)", f)
		}
		switch k {
		case "policies", "policy":
			// "all" expands eagerly: relying on the empty-Policies
			// default would silently drop it when a sched= cell also
			// populated the grid.
			if v == "all" {
				g.Policies = append(g.Policies, sched.Names()...)
			} else {
				g.Policies = append(g.Policies, strings.Split(v, ",")...)
			}
		case "sched":
			// One policy-set spec per occurrence: the value itself
			// contains "=" pairs and commas, so it cannot ride in the
			// comma list of the policies key.
			if _, err := sched.ParsePolicySet(v); err != nil {
				return Grid{}, err
			}
			g.Policies = append(g.Policies, v)
		case "seeds", "seed":
			seeds, err := parseSeeds(v)
			if err != nil {
				return Grid{}, err
			}
			g.Seeds = seeds
		case "jobs":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Grid{}, fmt.Errorf("sweep: jobs: %v", err)
			}
			g.Jobs = n
		case "nodes":
			n, err := strconv.Atoi(v)
			if err == nil {
				err = hwmodel.CheckNodes(n)
			}
			if err != nil {
				return Grid{}, fmt.Errorf("sweep: nodes: %v", err)
			}
			g.Nodes = n
		case "cluster":
			cs, err := hwmodel.ParseCluster(v)
			if err != nil {
				return Grid{}, fmt.Errorf("sweep: cluster: %v", err)
			}
			g.Cluster = cs
		case "cancel":
			x, err := parseRate(v)
			if err != nil {
				return Grid{}, fmt.Errorf("sweep: cancel: %v", err)
			}
			g.CancelRate = x
		case "fail":
			x, err := parseRate(v)
			if err != nil {
				return Grid{}, fmt.Errorf("sweep: fail: %v", err)
			}
			g.FailRate = x
		case "ia", "interarrival":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return Grid{}, fmt.Errorf("sweep: ia: bad mean %q", v)
			}
			g.MeanInterarrival = x
		case "swf":
			g.SWFPath = v
		case "max":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Grid{}, fmt.Errorf("sweep: max: %v", err)
			}
			g.MaxJobs = n
		case "spill":
			g.Spill = v == "1" || v == "true"
		case "spillafter":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return Grid{}, fmt.Errorf("sweep: spillafter: bad threshold %q", v)
			}
			g.SpillAfter = x
		case "spilldepth":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Grid{}, fmt.Errorf("sweep: spilldepth: bad depth %q", v)
			}
			g.SpillDepth = n
		case "nodefaults":
			g.NodeFaults = v
		case "mtbf":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return Grid{}, fmt.Errorf("sweep: mtbf: bad mean %q", v)
			}
			g.MTBF = x
		case "mttr":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil || x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return Grid{}, fmt.Errorf("sweep: mttr: bad mean %q", v)
			}
			g.MTTR = x
		case "requeue":
			n, err := strconv.Atoi(v)
			if err != nil {
				return Grid{}, fmt.Errorf("sweep: requeue: %v", err)
			}
			g.MaxRequeues = n
		case "stream":
			g.Stream = v == "1" || v == "true"
		case "check":
			g.DebugInvariants = v == "1" || v == "true"
		default:
			return Grid{}, fmt.Errorf("sweep: unknown grid key %q", k)
		}
	}
	return g, nil
}

// parseRate parses a probability in [0, 1]. NaN needs its own check:
// it fails both range comparisons, so the interval test alone would
// let "nan" through (ParseFloat parses that spelling without error).
func parseRate(v string) (float64, error) {
	x, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if x < 0 || x > 1 || math.IsNaN(x) {
		return 0, fmt.Errorf("rate %v outside [0,1]", x)
	}
	return x, nil
}

// parseSeeds accepts comma lists with lo-hi ranges: "1,3,5-8".
func parseSeeds(v string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(v, ",") {
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err1 := strconv.ParseInt(lo, 10, 64)
			b, err2 := strconv.ParseInt(hi, 10, 64)
			if err1 != nil || err2 != nil || b < a {
				return nil, fmt.Errorf("sweep: bad seed range %q", part)
			}
			if b-a >= 10000 {
				return nil, fmt.Errorf("sweep: seed range %q too large", part)
			}
			for s := a; s <= b; s++ {
				seeds = append(seeds, s)
			}
			continue
		}
		s, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad seed %q", part)
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}

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

// scenarioFromFile materializes an SWF file trace.
func scenarioFromFile(path string, o workload.SWFOptions) (workload.Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return workload.Scenario{}, err
	}
	defer f.Close()
	jobs, err := workload.ParseSWF(f)
	if err != nil {
		return workload.Scenario{}, err
	}
	sc, _, err := workload.SWFScenario(jobs, o)
	return sc, err
}

// sourceFromFile opens a streaming source over an SWF file. The
// source closes the file when it ends (EOF, parse error, or Close).
func sourceFromFile(path string, o workload.SWFOptions) (workload.SubmissionSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return workload.NewSWFReaderSource(f, o), nil
}
