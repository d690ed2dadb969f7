// Package trace records Extrae-like execution traces of the simulated
// workloads and renders Paraver-like ASCII timelines. The paper's
// Figures 5, 13 and 14 are trace views: per-thread utilization after a
// shrink, cycles-per-µs timelines of use case 2, and IPC histograms.
package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// State classifies what a thread was doing during a segment.
type State int

const (
	// Run: the thread executed application work.
	Run State = iota
	// Idle: the thread existed but had no work (imbalance bubbles,
	// Figure 5's "white idle spaces").
	Idle
	// Removed: the thread was taken away by a malleability action.
	Removed
)

func (s State) String() string {
	switch s {
	case Run:
		return "run"
	case Idle:
		return "idle"
	case Removed:
		return "removed"
	}
	return "?"
}

// Segment is one homogeneous interval of one thread's execution.
type Segment struct {
	Job    string
	Rank   int
	Thread int
	CPU    int
	T0, T1 float64
	State  State
	// IPC is the instructions-per-cycle achieved during the segment
	// (0 for non-Run segments).
	IPC float64
	// CyclesPerUs is the cycles/µs dedicated to the thread (the
	// Figure 13 metric); 0 when idle.
	CyclesPerUs float64
}

// Duration returns the segment length in seconds.
func (s Segment) Duration() float64 { return s.T1 - s.T0 }

// chunkRecs is the capacity of one storage chunk (224 KB of records).
const chunkRecs = 4096

// rec is a Segment as the tracer stores it: the job by its index in
// Tracer.jobs and the small integers narrowed, 56 bytes for 80 and no
// pointer in them, so the collector never scans a chunk.
type rec struct {
	t0, t1, ipc, cycles float64
	job                 uint32
	rank, thread, cpu   int32
	state               int8
}

// Tracer accumulates segments. A traced UC2 run records some 86 000 of
// them, several times everything else the run allocates. One []Segment
// grown by append would cost five times its final size in ever larger
// blocks that the collector must scan for the job names, and what a
// traced run holds resident would then depend on when a collection
// happens to start; so they are kept as pointer-free records in
// equal-sized chunks and turned back into Segments for whoever reads
// them.
type Tracer struct {
	chunks  [][]rec // in recording order, all full but the last
	n       int
	jobs    []string // distinct job names in first-appearance order
	jobIdx  map[string]uint32
	lastJob uint32    // jobID's last answer
	joined  []Segment // Segments' result, the first len(joined) records
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Add appends a segment. Zero- or negative-length segments are
// dropped. Rank, Thread and CPU are kept as int32.
func (t *Tracer) Add(s Segment) {
	if s.T1 <= s.T0 {
		return
	}
	if t.n%chunkRecs == 0 {
		t.chunks = append(t.chunks, make([]rec, 0, chunkRecs))
	}
	last := len(t.chunks) - 1
	t.chunks[last] = append(t.chunks[last], rec{
		t0: s.T0, t1: s.T1, ipc: s.IPC, cycles: s.CyclesPerUs,
		job: t.jobID(s.Job), rank: int32(s.Rank), thread: int32(s.Thread), cpu: int32(s.CPU),
		state: int8(s.State),
	})
	t.n++
}

// jobID returns the index of a job name in t.jobs, adding it if new.
// A rank records all its threads in a row, so the name asked for is
// nearly always the one found last.
func (t *Tracer) jobID(name string) uint32 {
	if int(t.lastJob) < len(t.jobs) && t.jobs[t.lastJob] == name {
		return t.lastJob
	}
	id, ok := t.jobIdx[name]
	if !ok {
		if t.jobIdx == nil {
			t.jobIdx = make(map[string]uint32)
		}
		id = uint32(len(t.jobs))
		t.jobs = append(t.jobs, name)
		t.jobIdx[name] = id
	}
	t.lastJob = id
	return id
}

// Segments returns all recorded segments in recording order. The slice
// is built from the records on demand and shared between calls; treat
// as read-only.
func (t *Tracer) Segments() []Segment {
	t.joined = slices.Grow(t.joined, t.n-len(t.joined))
	for i := len(t.joined); i < t.n; i++ {
		r := &t.chunks[i/chunkRecs][i%chunkRecs]
		t.joined = append(t.joined, Segment{
			Job: t.jobs[r.job], Rank: int(r.rank), Thread: int(r.thread), CPU: int(r.cpu),
			T0: r.t0, T1: r.t1, State: State(r.state), IPC: r.ipc, CyclesPerUs: r.cycles,
		})
	}
	return t.joined
}

// Jobs returns the distinct job names in first-appearance order.
func (t *Tracer) Jobs() []string { return slices.Clone(t.jobs) }

// Filter returns the segments of one job (all jobs if job == "").
func (t *Tracer) Filter(job string) []Segment {
	if job == "" {
		return t.Segments()
	}
	var out []Segment
	for _, s := range t.Segments() {
		if s.Job == job {
			out = append(out, s)
		}
	}
	return out
}

// Span returns the [min T0, max T1] over all segments.
func (t *Tracer) Span() (float64, float64) {
	if t.n == 0 {
		return 0, 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range t.Segments() {
		lo = math.Min(lo, s.T0)
		hi = math.Max(hi, s.T1)
	}
	return lo, hi
}

// threadKey identifies one timeline row.
type threadKey struct {
	job          string
	rank, thread int
}

func (k threadKey) String() string {
	return fmt.Sprintf("%s r%d t%02d", k.job, k.rank, k.thread)
}

// ThreadUtilization returns, per thread of a job, the fraction of
// [t0,t1] spent in Run state. Threads are returned sorted by (rank,
// thread).
func (t *Tracer) ThreadUtilization(job string, t0, t1 float64) []ThreadStat {
	acc := map[threadKey]float64{}
	for _, s := range t.Filter(job) {
		lo, hi := math.Max(s.T0, t0), math.Min(s.T1, t1)
		if hi <= lo {
			continue
		}
		k := threadKey{s.Job, s.Rank, s.Thread}
		if s.State == Run {
			acc[k] += hi - lo
		} else {
			acc[k] += 0
		}
	}
	var out []ThreadStat
	for k, busy := range acc {
		out = append(out, ThreadStat{
			Job: k.job, Rank: k.rank, Thread: k.thread,
			Utilization: busy / (t1 - t0),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Thread < out[j].Thread
	})
	return out
}

// ThreadStat is one thread's aggregate over a window.
type ThreadStat struct {
	Job         string
	Rank        int
	Thread      int
	Utilization float64
}

// IPCHistogram bins the Run-segment IPC values of a job, weighted by
// segment duration: the paper's Figure 14 view.
func (t *Tracer) IPCHistogram(job string, bins int, ipcMax float64) []float64 {
	h := make([]float64, bins)
	for _, s := range t.Filter(job) {
		if s.State != Run || s.IPC <= 0 {
			continue
		}
		b := int(s.IPC / ipcMax * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		h[b] += s.Duration()
	}
	return h
}

// shadeChars maps intensity 0..1 to ASCII, darkest last.
var shadeChars = []byte(" .:-=+*#%@")

func shade(v float64) byte {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	i := int(v * float64(len(shadeChars)-1))
	return shadeChars[i]
}

// RenderTimeline draws a Paraver-like ASCII view: one row per thread,
// columns are time buckets, cell intensity is the bucketed value of
// metric ("util" = run fraction, "cycles" = cycles/µs normalized to
// the max, "ipc" = IPC normalized to the max).
func (t *Tracer) RenderTimeline(job string, width int, metric string) string {
	segs := t.Filter(job)
	if len(segs) == 0 {
		return "(empty trace)\n"
	}
	lo, hi := t.Span()
	if hi <= lo {
		return "(empty span)\n"
	}
	rows := map[threadKey][]float64{}
	weight := map[threadKey][]float64{}
	var maxVal float64
	for _, s := range segs {
		k := threadKey{s.Job, s.Rank, s.Thread}
		if rows[k] == nil {
			rows[k] = make([]float64, width)
			weight[k] = make([]float64, width)
		}
		var v float64
		switch metric {
		case "cycles":
			v = s.CyclesPerUs
		case "ipc":
			v = s.IPC
		default: // "util"
			if s.State == Run {
				v = 1
			}
		}
		maxVal = math.Max(maxVal, v)
		b0 := int((s.T0 - lo) / (hi - lo) * float64(width))
		b1 := int((s.T1 - lo) / (hi - lo) * float64(width))
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			rows[k][b] += v * s.Duration()
			weight[k][b] += s.Duration()
		}
	}
	if metric == "util" {
		maxVal = 1
	}
	keys := make([]threadKey, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.job != b.job {
			return a.job < b.job
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.thread < b.thread
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "time %.1fs .. %.1fs, metric=%s, max=%.2f\n", lo, hi, metric, maxVal)
	for _, k := range keys {
		line := make([]byte, width)
		for b := 0; b < width; b++ {
			if weight[k][b] <= 0 {
				line[b] = ' '
				continue
			}
			v := rows[k][b] / weight[k][b]
			if maxVal > 0 {
				v /= maxVal
			}
			line[b] = shade(v)
		}
		fmt.Fprintf(&sb, "%-24s |%s|\n", k, line)
	}
	return sb.String()
}
