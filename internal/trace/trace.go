// Package trace records Extrae-like execution traces of the simulated
// workloads and renders Paraver-like ASCII timelines. The paper's
// Figures 5, 13 and 14 are trace views: per-thread utilization after a
// shrink, cycles-per-µs timelines of use case 2, and IPC histograms.
//
// A trace is read as segments — one homogeneous interval of one
// thread — and stored as spans: runs of identical iterations of a job,
// each held once (Tracer.AddSpan). Tracer.Segments is the one place the
// views and the exporters read, and it expands the spans into the
// segments, in the order, that a run recording every iteration as it
// executed it would have produced; Tracer's comment states the rule
// that order rests on.
package trace

import (
	"cmp"
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

// blocksPerChunk and rowsPerChunk are the capacities of the two kinds
// of storage chunk (3.5 KB and 10 KB).
const (
	blocksPerChunk = 64
	rowsPerChunk   = 256
)

// block is n back-to-back iterations of one job. The first runs from t0
// to t1 — t1 is kept, not derived, so that a single segment given to
// Add comes back bit for bit — and each later one starts where the
// previous ended and lasts period, by the float add the engine performs
// when it books the next iteration. No pointer in it, nor in a row: the
// collector never scans a chunk.
type block struct {
	t0, t1, period float64
	n              int64
	job            uint32
	rows           rowsRef
	// taken: the engine took the iterations by itself (see AddSpan).
	taken bool
}

// rowsRef names len consecutive rows of one row chunk.
type rowsRef struct{ chunk, off, len int32 }

// row is one thread's share of an iteration. busy >= 0: the thread runs
// for that fraction of the iteration and idles for the rest; busy < 0:
// it spends the whole iteration in state.
type row struct {
	busy, ipc, cycles float64
	rank, thread, cpu int32
	state             int8
}

// lane is what the tracer keeps per job: its name, the pattern of its
// last block — the next block reuses the stored rows when its pattern
// is the same — and the flusher of the span its owner has open.
type lane struct {
	name  string
	last  rowsRef
	flush func()
}

// Tracer accumulates the segments of a run. A traced UC2 run yields
// 85 888 of them from about ten blocks: an application executes an
// iteration only when something it reads has changed and hands the
// steady ones in between to the engine (sim.Periodic), and each of the
// two is one block here — the executed iteration as it happens, the
// span it armed when the span settles. Blocks and rows are kept
// pointer-free in equal-sized chunks and turned into Segments for
// whoever reads them.
//
// The order of Segments is the order in which a run that executed
// every iteration would have recorded them — WriteCSV and the Paraver
// writers depend on it. Executed iterations (and Add's segments) are
// stored as they happen and keep that order. A span the engine took is
// stored when it settles, after everything that was executed while it
// ran, and its iterations are woven back by start time: the engine
// takes a traced application's iteration only while it is alone at its
// instant (sim.Periodic.ArmSolo), so whatever was executed at the same
// instant was executed before it, and a taken iteration goes after
// every executed block starting no later than it and before the first
// one starting later. Two taken iterations never share an instant.
//
// Out of model: a caller that drives the engine with Engine.Step —
// which, unlike RunUntil, can return on a taken iteration — and then
// books, from outside the engine, work that records at that very
// instant (a launch with zero latency and zero initialisation). The run
// that executes every iteration records it after the iteration; here it
// is woven before it. The segments are the same, the two neighbours
// swap. TestOutsideBookingAtATakenInstant in internal/apps pins it; no
// driver in the repository steps a traced engine that way.
type Tracer struct {
	blocks  [][]block // in recording order, all full but the last
	nblocks int
	rows    [][]row
	lanes   []lane // one per job
	jobIdx  map[string]uint32
	lastJob uint32 // laneOf's last answer
	// joined is Segments' result: the expansion of the first expanded
	// blocks.
	joined   []Segment
	expanded int
	scratch  []row // the pattern being recorded
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Add appends a segment. Zero- or negative-length segments are
// dropped. Rank, Thread and CPU are kept as int32.
func (t *Tracer) Add(s Segment) {
	if s.T1 <= s.T0 {
		return
	}
	l := t.laneOf(s.Job)
	t.scratch = append(t.scratch[:0], wholeRow(s))
	t.push(block{t0: s.T0, t1: s.T1, n: 1, job: l, rows: t.pattern(l)})
}

// wholeRow is the row of a thread that spends whole iterations in s's
// state, on s's CPU.
func wholeRow(s Segment) row {
	return row{
		busy: -1, ipc: s.IPC, cycles: s.CyclesPerUs,
		rank: int32(s.Rank), thread: int32(s.Thread), cpu: int32(s.CPU), state: int8(s.State),
	}
}

// AddSpan records n back-to-back iterations of one job, the first
// starting at t0 and each lasting period. pattern is one iteration
// drawn on the unit interval, a Segment per thread, all of one job: a
// Run segment from 0 to T1 is a thread busy for that fraction of every
// iteration and idle for the rest of it, a segment in another state a
// thread that spends whole iterations in it. Every iteration is
// expanded as Add would have been called for it — the threads in
// pattern order, Run from the iteration's start to start + period·T1,
// then Idle to its end, empty segments dropped.
//
// taken says the engine took the iterations by itself, as occurrences
// of a solo chain (sim.Periodic.ArmSolo), and the owner reports them
// now that the span has settled; Segments puts them where they would
// have been recorded had they been executed. An executed iteration is
// reported as it happens, with n = 1.
//
// flush, when non-nil, says the owner has a span open behind this
// record: Segments calls it before reading, and the owner must report
// what the engine has taken so far (with n = 0 if nothing). Any later
// record of the job replaces it.
func (t *Tracer) AddSpan(t0, period float64, n int64, taken bool, pattern []Segment, flush func()) {
	if len(pattern) == 0 {
		return
	}
	l := t.laneOf(pattern[0].Job)
	t.lanes[l].flush = flush
	t1 := t0 + period
	if n <= 0 || !(t1 > t0) {
		return
	}
	t.scratch = slices.Grow(t.scratch[:0], len(pattern))
	for _, s := range pattern {
		r := wholeRow(s)
		if s.State == Run {
			r.busy = s.T1
		}
		t.scratch = append(t.scratch, r)
	}
	t.push(block{t0: t0, t1: t1, period: period, n: n, job: l, rows: t.pattern(l), taken: taken})
}

// laneOf returns the index of a job's lane, adding it if new. A rank
// records all its threads in a row, so the name asked for is nearly
// always the one found last.
func (t *Tracer) laneOf(name string) uint32 {
	if int(t.lastJob) < len(t.lanes) && t.lanes[t.lastJob].name == name {
		return t.lastJob
	}
	id, ok := t.jobIdx[name]
	if !ok {
		if t.jobIdx == nil {
			t.jobIdx = make(map[string]uint32)
		}
		id = uint32(len(t.lanes))
		t.lanes = append(t.lanes, lane{name: name})
		t.jobIdx[name] = id
	}
	t.lastJob = id
	return id
}

// pattern stores t.scratch as the pattern of lane l's next block and
// returns where; a pattern equal to the lane's last is not stored
// again. The rows of one pattern share a chunk.
func (t *Tracer) pattern(l uint32) rowsRef {
	ln := &t.lanes[l]
	if slices.Equal(t.rowsOf(ln.last), t.scratch) {
		return ln.last
	}
	c := len(t.rows) - 1
	if c < 0 || cap(t.rows[c])-len(t.rows[c]) < len(t.scratch) {
		t.rows = append(t.rows, make([]row, 0, max(rowsPerChunk, len(t.scratch))))
		c++
	}
	ln.last = rowsRef{chunk: int32(c), off: int32(len(t.rows[c])), len: int32(len(t.scratch))}
	t.rows[c] = append(t.rows[c], t.scratch...)
	return ln.last
}

func (t *Tracer) rowsOf(r rowsRef) []row {
	if r.len == 0 {
		return nil
	}
	return t.rows[r.chunk][r.off : r.off+r.len]
}

func (t *Tracer) push(b block) {
	if t.nblocks%blocksPerChunk == 0 {
		t.blocks = append(t.blocks, make([]block, 0, blocksPerChunk))
	}
	last := len(t.blocks) - 1
	t.blocks[last] = append(t.blocks[last], b)
	t.nblocks++
}

func (t *Tracer) block(i int) *block { return &t.blocks[i/blocksPerChunk][i%blocksPerChunk] }

// Segments returns all recorded segments in recording order — taken
// iterations where executing them would have recorded them. Spans
// still open are settled first. The slice is built from the blocks on
// demand and shared between calls; treat as read-only.
func (t *Tracer) Segments() []Segment {
	for i := range t.lanes {
		if flush := t.lanes[i].flush; flush != nil {
			t.lanes[i].flush = nil
			flush()
		}
	}
	if t.expanded < t.nblocks {
		t.expand()
	}
	return t.joined
}

// expand appends the segments of the blocks recorded since the last
// read to t.joined. Every span is settled by now, so everything that
// follows starts no earlier than everything here: the new blocks are
// woven among themselves only.
func (t *Tracer) expand() {
	// The taken iterations, by start time. Those of one job are already
	// in order; the sort interleaves the jobs.
	type iter struct {
		t0 float64
		b  *block
	}
	var taken []iter
	room := 0
	for i := t.expanded; i < t.nblocks; i++ {
		b := t.block(i)
		for _, r := range t.rowsOf(b.rows) {
			if r.busy > 0 && r.busy < 1 {
				room += int(b.n)
			}
			room += int(b.n)
		}
		if !b.taken {
			continue
		}
		for k, at := int64(0), b.t0; k < b.n; k, at = k+1, at+b.period {
			taken = append(taken, iter{at, b})
		}
	}
	slices.SortStableFunc(taken, func(x, y iter) int { return cmp.Compare(x.t0, y.t0) })
	out := slices.Grow(t.joined, room)
	for i := t.expanded; i < t.nblocks; i++ {
		b := t.block(i)
		if b.taken {
			continue
		}
		for len(taken) > 0 && taken[0].t0 < b.t0 {
			out = t.iteration(out, taken[0].b, taken[0].t0, taken[0].t0+taken[0].b.period)
			taken = taken[1:]
		}
		for k, t0, t1 := int64(0), b.t0, b.t1; k < b.n; k, t0, t1 = k+1, t1, t1+b.period {
			out = t.iteration(out, b, t0, t1)
		}
	}
	for _, it := range taken {
		out = t.iteration(out, it.b, it.t0, it.t0+it.b.period)
	}
	t.joined, t.expanded = out, t.nblocks
}

// iteration appends to out the segments of the iteration of b that runs
// from t0 to t1. A segment is written field by field into the slice —
// built on the stack and copied over, this loop is twice as slow.
func (t *Tracer) iteration(out []Segment, b *block, t0, t1 float64) []Segment {
	job := t.lanes[b.job].name
	for _, r := range t.rowsOf(b.rows) {
		from, to, state := t0, t1, State(r.state)
		if r.busy >= 0 {
			to, state = t0+b.period*r.busy, Run
		}
		if to > from {
			out = extend(out)
			s := &out[len(out)-1]
			s.Job, s.Rank, s.Thread, s.CPU = job, int(r.rank), int(r.thread), int(r.cpu)
			s.T0, s.T1, s.State, s.IPC, s.CyclesPerUs = from, to, state, r.ipc, r.cycles
		}
		if r.busy >= 0 && to < t1 {
			out = extend(out)
			s := &out[len(out)-1]
			s.Job, s.Rank, s.Thread, s.CPU = job, int(r.rank), int(r.thread), int(r.cpu)
			s.T0, s.T1, s.State, s.IPC, s.CyclesPerUs = to, t1, Idle, 0, 0
		}
	}
	return out
}

// extend lengthens out by one segment, whose fields the caller sets.
func extend(out []Segment) []Segment {
	if len(out) < cap(out) {
		return out[:len(out)+1]
	}
	return append(out, Segment{})
}

// Jobs returns the distinct job names in first-appearance order.
func (t *Tracer) Jobs() []string {
	var jobs []string
	seen := make([]bool, len(t.lanes))
	for i := 0; i < t.nblocks; i++ {
		if j := t.block(i).job; !seen[j] {
			seen[j] = true
			jobs = append(jobs, t.lanes[j].name)
		}
	}
	return jobs
}

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
	segs := t.Segments()
	if len(segs) == 0 {
		return 0, 0
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range segs {
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
