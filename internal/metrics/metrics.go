// Package metrics computes the system-level quantities the paper
// evaluates (§6): total run time, per-job response time, average
// response time, and per-thread performance counters (IPC,
// cycles/µs).
package metrics

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
)

// Outcome classifies how a job left the system.
type Outcome int

const (
	// OutcomeCompleted is a normal termination (the zero value).
	OutcomeCompleted Outcome = iota
	// OutcomeFailed is a premature end: the job died mid-runtime and
	// its CPUs were freed early.
	OutcomeFailed
	// OutcomeCancelled is a user cancellation (scancel): a queued job
	// that never started, or a running job killed on request.
	OutcomeCancelled
	// OutcomeNodeFailed is a job lost to node failures: it was killed
	// by a node going down and its requeue budget was already spent, so
	// the scheduler gave up on it.
	OutcomeNodeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeFailed:
		return "failed"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeNodeFailed:
		return "node-failed"
	}
	return "?"
}

// JobRecord captures one job's lifecycle timestamps (virtual seconds).
type JobRecord struct {
	Name   string
	Submit float64
	Start  float64
	End    float64
	// Partition names the cluster partition the job ran in ("" on
	// runs that predate the partition model).
	Partition string
	// Origin names the partition the job was submitted to when a
	// cross-partition spillover re-routed it; "" when the job ran in
	// its home partition (the common case).
	Origin string
	// Outcome records how the job ended (completed when untouched).
	Outcome Outcome
}

// Spilled reports a job that ran in a different partition than it was
// submitted to.
func (j JobRecord) Spilled() bool { return j.Origin != "" && j.Origin != j.Partition }

// WaitTime is the time spent in the scheduler queue.
func (j JobRecord) WaitTime() float64 { return j.Start - j.Submit }

// RunTime is the execution time.
func (j JobRecord) RunTime() float64 { return j.End - j.Start }

// ResponseTime is wait + run: the paper's per-job metric.
func (j JobRecord) ResponseTime() float64 { return j.End - j.Submit }

// BoundedSlowdown is response over runtime with the standard 10 s
// denominator floor, clamped below at 1.
func (j JobRecord) BoundedSlowdown() float64 {
	return math.Max(1, j.ResponseTime()/math.Max(j.RunTime(), BoundedSlowdownThreshold))
}

// NeverRan reports a cancelled-while-queued record: the job left the
// queue without executing. Such records count toward job and
// cancellation totals but are excluded from the wait/response/
// slowdown statistics — a job cancelled after an hour in the queue
// would otherwise dominate the bounded slowdown (3600/10 = 360) and
// make fault-aware replays incomparable with clean baselines.
func (j JobRecord) NeverRan() bool {
	return j.Outcome == OutcomeCancelled && j.RunTime() <= 0
}

// DropStats counts trace records that never became submissions: the
// parse-level coverage of an SWF replay. Before these counters the
// mapping silently skipped such records, so "replayed the trace"
// could quietly mean "replayed the 80% of it that parsed cleanly".
type DropStats struct {
	// Unusable records lacked a usable runtime/width or exceeded the
	// target partition's capacity.
	Unusable int
	// Cancelled / Failed count records with those SWF status codes
	// that could not be replayed (e.g. an unmappable shape).
	Cancelled int
	Failed    int
}

// Total returns the summed drop count.
func (d DropStats) Total() int { return d.Unusable + d.Cancelled + d.Failed }

func (d DropStats) String() string {
	return fmt.Sprintf("%d dropped (%d unusable, %d cancelled, %d failed)",
		d.Total(), d.Unusable, d.Cancelled, d.Failed)
}

// Workload aggregates the jobs of one scenario run. Add folds every
// record into running sums and tallies; in the default mode it also
// retains the record, which adds what needs the distribution or the
// job names: percentiles, Demand, Job and String. SetAggregate drops
// the retention — the mode million-job replays use to stay in bounded
// memory.
//
// Jobs holds the records this lineage appended. On a root workload
// that is every record; on one made by Fork it is only what was added
// after the fork, and the records from before it are the frozen
// history the fork shares with its parent. All reads both, history
// first.
type Workload struct {
	Jobs []JobRecord
	// hist is the frozen history, oldest segment first. Each segment is
	// cut with a full slice expression (s[:n:n]), so no append — the
	// parent's included — can write into it.
	hist [][]JobRecord

	// Dropped counts the trace records the replay's mapping layer
	// discarded before submission (set by the workload runner; zero
	// for programmatic scenarios).
	Dropped DropStats

	aggregate   bool
	n           int
	firstSubmit float64
	lastEnd     float64
	// statsN counts the records folded into the wait/response/
	// slowdown sums: everything except NeverRan cancellations.
	statsN  int
	sumWait float64
	sumResp float64
	sumSlow float64
	maxSlow float64

	nFailed     int
	nCancelled  int
	nSpilled    int
	nNodeFailed int
	// Failure-domain tallies (injected by the controller's fault
	// model, not derived from job records): requeue events, virtual
	// seconds of job progress lost to node kills, and node-seconds of
	// downtime booked at repair.
	nRequeues int
	lostWorkS float64
	downS     float64
	// perPart holds one tally bucket per partition, in the order a
	// record first named it: partitions are few, so part walks them.
	perPart []partAgg
}

// partAgg is the per-partition slice of the workload's tallies.
type partAgg struct {
	name                         string
	n, statsN, failed, cancelled int
	spilledIn, spilledOut        int
	nodeFailed, requeues         int
	lostWorkS, downS             float64
	sumWait, sumResp             float64
}

// Fork returns the workload a forked simulation lineage records into:
// the running aggregates and every per-partition tally bucket copied,
// and the retained records shared as frozen history — the parent's
// history segments plus its own records cut at their current length —
// with the child's Jobs empty. Records are never written in place, so
// neither lineage sees a record the other appends. The cost is the
// number of forks above this one and the partition count, not the
// number of records.
func (w *Workload) Fork() *Workload {
	cp := *w
	cp.Jobs = nil
	if n := len(w.Jobs); n > 0 {
		cp.hist = append(w.hist[:len(w.hist):len(w.hist)], w.Jobs[:n:n])
	}
	cp.perPart = slices.Clone(w.perPart)
	return &cp
}

// Snapshot returns a copy of w that nothing added to w later can
// change: Jobs holds every record (the frozen history flattened in
// front of this lineage's own), cut at its length, and every tally is
// copied, the per-partition ones included.
func (w *Workload) Snapshot() Workload {
	cp := *w
	cp.Flatten()
	cp.Jobs = cp.Jobs[:len(cp.Jobs):len(cp.Jobs)]
	cp.perPart = slices.Clone(w.perPart)
	return cp
}

// All yields every retained record in the order it was added: the
// frozen history, then this lineage's own records.
func (w *Workload) All() iter.Seq[JobRecord] {
	return func(yield func(JobRecord) bool) {
		for _, seg := range w.hist {
			for _, j := range seg {
				if !yield(j) {
					return
				}
			}
		}
		for _, j := range w.Jobs {
			if !yield(j) {
				return
			}
		}
	}
}

// Flatten gathers the frozen history and this lineage's records into
// Jobs, a fresh slice, so that Jobs holds every record. It does nothing
// on a workload without history, whose Jobs already does.
func (w *Workload) Flatten() {
	if len(w.hist) == 0 {
		return
	}
	w.Jobs = slices.AppendSeq(make([]JobRecord, 0, w.n), w.All())
	w.hist = nil
}

// SetAggregate stops the workload retaining per-job records. It must
// be called before the first Add.
func (w *Workload) SetAggregate() {
	if w.n > 0 {
		panic("metrics: SetAggregate after records were added")
	}
	w.aggregate = true
}

// Grow makes room for n more retained records, so that adding them
// allocates nothing; an aggregate-only workload retains none.
func (w *Workload) Grow(n int) {
	if !w.aggregate {
		w.Jobs = slices.Grow(w.Jobs, n)
	}
}

// part returns (creating on first use) the tally bucket of a
// partition. The pointer is good until the next part call.
func (w *Workload) part(name string) *partAgg {
	for i := range w.perPart {
		if w.perPart[i].name == name {
			return &w.perPart[i]
		}
	}
	w.perPart = append(w.perPart, partAgg{name: name})
	return &w.perPart[len(w.perPart)-1]
}

// Add folds a job record into the aggregates and, unless the workload
// is aggregate-only, retains it.
func (w *Workload) Add(j JobRecord) {
	switch j.Outcome {
	case OutcomeFailed:
		w.nFailed++
	case OutcomeCancelled:
		w.nCancelled++
	case OutcomeNodeFailed:
		w.nNodeFailed++
	}
	if j.Partition != "" {
		pa := w.part(j.Partition)
		pa.n++
		if !j.NeverRan() {
			pa.statsN++
			pa.sumWait += j.WaitTime()
			pa.sumResp += j.ResponseTime()
		}
		switch j.Outcome {
		case OutcomeFailed:
			pa.failed++
		case OutcomeCancelled:
			pa.cancelled++
		case OutcomeNodeFailed:
			pa.nodeFailed++
		}
		if j.Spilled() {
			w.nSpilled++
			pa.spilledIn++
			w.part(j.Origin).spilledOut++
		}
	}
	if !w.aggregate {
		w.Jobs = append(w.Jobs, j)
	}
	if w.n == 0 {
		w.firstSubmit = j.Submit
		w.lastEnd = j.End
	} else {
		w.firstSubmit = math.Min(w.firstSubmit, j.Submit)
		w.lastEnd = math.Max(w.lastEnd, j.End)
	}
	w.n++
	if j.NeverRan() {
		return
	}
	w.statsN++
	w.sumWait += j.WaitTime()
	w.sumResp += j.ResponseTime()
	s := j.BoundedSlowdown()
	w.sumSlow += s
	w.maxSlow = math.Max(w.maxSlow, s)
}

// Count returns the number of jobs recorded.
func (w *Workload) Count() int { return w.n }

// AddRequeue tallies one requeue event against a partition: a job was
// killed by a node fault and re-entered the queue. Called by the
// controller's fault model; works in both retention modes.
func (w *Workload) AddRequeue(part string) {
	w.nRequeues++
	if part != "" {
		w.part(part).requeues++
	}
}

// AddLostWork tallies virtual seconds of job progress destroyed by a
// node kill (time from the job's start to the kill), attributed to the
// partition the job was running in.
func (w *Workload) AddLostWork(part string, s float64) {
	w.lostWorkS += s
	if part != "" {
		w.part(part).lostWorkS += s
	}
}

// AddDownTime tallies node-seconds of unavailability, booked when a
// node is repaired, against the node's partition.
func (w *Workload) AddDownTime(part string, s float64) {
	w.downS += s
	if part != "" {
		w.part(part).downS += s
	}
}

// PartitionStat is one partition's slice of a workload run.
type PartitionStat struct {
	Partition string `json:"partition"`
	Jobs      int    `json:"jobs"`
	Failed    int    `json:"failed,omitempty"`
	Cancelled int    `json:"cancelled,omitempty"`
	// SpilledIn counts jobs that spilled into this partition from
	// another; SpilledOut counts jobs submitted here that ran
	// elsewhere (such jobs appear in their host partition's Jobs, not
	// this one's).
	SpilledIn  int `json:"spilled_in,omitempty"`
	SpilledOut int `json:"spilled_out,omitempty"`
	// Failure-domain tallies: jobs lost to node faults after the
	// requeue cap, requeue events, virtual seconds of progress
	// destroyed by kills, and node-seconds of downtime.
	NodeFailed   int     `json:"node_failed,omitempty"`
	Requeues     int     `json:"requeues,omitempty"`
	LostWorkS    float64 `json:"lost_work_s,omitempty"`
	DownS        float64 `json:"down_node_s,omitempty"`
	MeanWait     float64 `json:"mean_wait_s"`
	MeanResponse float64 `json:"mean_resp_s"`
}

func (p PartitionStat) String() string {
	s := fmt.Sprintf("partition=%s jobs=%d failed=%d cancelled=%d mean_wait=%.1fs mean_resp=%.1fs",
		p.Partition, p.Jobs, p.Failed, p.Cancelled, p.MeanWait, p.MeanResponse)
	if p.SpilledIn > 0 || p.SpilledOut > 0 {
		s += fmt.Sprintf(" spill_in=%d spill_out=%d", p.SpilledIn, p.SpilledOut)
	}
	if p.Requeues > 0 || p.NodeFailed > 0 || p.DownS > 0 {
		s += fmt.Sprintf(" requeued=%d node_failed=%d lost_work=%.0fs down_node=%.0fs",
			p.Requeues, p.NodeFailed, p.LostWorkS, p.DownS)
	}
	return s
}

// PartitionStats returns the per-partition tallies, sorted by
// partition name. It is empty when no record named a partition.
func (w *Workload) PartitionStats() []PartitionStat {
	if len(w.perPart) == 0 {
		return nil
	}
	out := make([]PartitionStat, 0, len(w.perPart))
	for i := range w.perPart {
		pa := &w.perPart[i]
		st := PartitionStat{
			Partition: pa.name, Jobs: pa.n, Failed: pa.failed, Cancelled: pa.cancelled,
			SpilledIn: pa.spilledIn, SpilledOut: pa.spilledOut,
			NodeFailed: pa.nodeFailed, Requeues: pa.requeues,
			LostWorkS: pa.lostWorkS, DownS: pa.downS,
		}
		if pa.statsN > 0 {
			st.MeanWait = pa.sumWait / float64(pa.statsN)
			st.MeanResponse = pa.sumResp / float64(pa.statsN)
		}
		out = append(out, st)
	}
	slices.SortFunc(out, func(a, b PartitionStat) int { return strings.Compare(a.Partition, b.Partition) })
	return out
}

// Job returns the record with the given name, or false. Aggregated
// workloads retain no per-job records.
func (w *Workload) Job(name string) (JobRecord, bool) {
	for j := range w.All() {
		if j.Name == name {
			return j, true
		}
	}
	return JobRecord{}, false
}

// TotalRunTime is "last job end time minus first job submission time".
func (w *Workload) TotalRunTime() float64 {
	if w.n == 0 {
		return 0
	}
	return w.lastEnd - w.firstSubmit
}

// Utilization estimates the cluster utilization over the workload's
// span: Σ_j (CPUs_j × run_j) / (totalCores × TotalRunTime). CPU-time
// is approximated by each job's requested width times its run time, so
// malleability phases are averaged out; use traces for exact numbers.
func (w *Workload) Utilization(cpusOf func(name string) int, totalCores int) float64 {
	total := w.TotalRunTime()
	if total <= 0 || totalCores <= 0 {
		return 0
	}
	var used float64
	for j := range w.All() {
		used += float64(float64(cpusOf(j.Name)) * j.RunTime())
	}
	u := used / (float64(totalCores) * total)
	if u > 1 {
		u = 1
	}
	return u
}

// AvgResponseTime is the arithmetic mean of the jobs' response times
// (NeverRan cancellations excluded).
func (w *Workload) AvgResponseTime() float64 {
	if w.statsN == 0 {
		return 0
	}
	return w.sumResp / float64(w.statsN)
}

// String renders a compact table of the workload.
func (w *Workload) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %10s %10s %10s %10s\n", "job", "submit", "wait", "run", "response")
	for j := range w.All() {
		fmt.Fprintf(&sb, "%-28s %10.1f %10.1f %10.1f %10.1f\n",
			j.Name, j.Submit, j.WaitTime(), j.RunTime(), j.ResponseTime())
	}
	fmt.Fprintf(&sb, "total run time %.1f s, avg response %.1f s\n",
		w.TotalRunTime(), w.AvgResponseTime())
	return sb.String()
}

// Gain returns the relative improvement of b over a: (a-b)/a.
// Positive means b is better (smaller). Zero when a is zero.
func Gain(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a
}

// Series is a labeled sequence of (x, y) points, used to print the
// figure data rows.
type Series struct {
	Label  string
	Points []Point
}

// Point is one series sample.
type Point struct {
	X string
	Y float64
}

// Add appends a point.
func (s *Series) Add(x string, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Table renders multiple series sharing X labels as an aligned text
// table (one row per X, one column per series).
func Table(series ...Series) string {
	// Collect X labels in first-appearance order.
	var xs []string
	seen := map[string]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s", "")
	for _, s := range series {
		fmt.Fprintf(&sb, " %14s", s.Label)
	}
	sb.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&sb, "%-34s", x)
		for _, s := range series {
			val := math.NaN()
			for _, p := range s.Points {
				if p.X == x {
					val = p.Y
					break
				}
			}
			if math.IsNaN(val) {
				fmt.Fprintf(&sb, " %14s", "-")
			} else {
				fmt.Fprintf(&sb, " %14.1f", val)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Summary holds per-thread counter aggregates for Figure 14-style
// views.
type Summary struct {
	values []float64
}

// Observe adds a sample.
func (s *Summary) Observe(v float64) { s.values = append(s.values, v) }

// Percentile returns the p-th percentile (0 <= p <= 100) by
// nearest-rank on a sorted copy.
func (s *Summary) Percentile(p float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	cp := append([]float64(nil), s.values...)
	sort.Float64s(cp)
	idx := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}
