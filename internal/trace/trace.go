// Package trace records Extrae-like execution traces of the simulated
// workloads and renders Paraver-like ASCII timelines. The paper's
// Figures 5, 13 and 14 are trace views: per-thread utilization after a
// shrink, cycles-per-µs timelines of use case 2, and IPC histograms.
//
// A trace is read as segments — one homogeneous interval of one
// thread — and stored as spans: runs of identical iterations of a job,
// each held once (Tracer.AddSpan). Tracer.All is the one way to read it:
// every view and exporter ranges over it, and it expands the spans into
// the segments, in the order, that a run recording every iteration as
// it executed it would have produced, keeping none of them. Tracer's
// comment states the rule that order rests on.
package trace

import (
	"cmp"
	"fmt"
	"iter"
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
// of storage chunk (3 KB and 10 KB).
const (
	blocksPerChunk = 64
	rowsPerChunk   = 256
)

// block is n back-to-back iterations of one job. The first starts at
// t0, and each lasts period and ends where the next starts, by the
// float add the engine performs when it books the next iteration. No
// pointer in it, nor in a row: the collector never scans a chunk.
type block struct {
	t0, period float64
	n          int64
	job        uint32
	rows       rowsRef
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
// pointer-free in equal-sized chunks and turned into Segments as they
// are read.
//
// The order of All is the order in which a run that executed every
// iteration would have recorded the segments — WriteCSV and the
// Paraver writers depend on it. Executed iterations are stored as they
// happen and keep that order. A span the engine took is stored when it
// settles, after everything that was executed while it ran, and its
// iterations are woven back by start time: the engine takes a traced
// application's iteration only while it is alone at its instant
// (sim.Periodic.ArmSolo), so whatever was executed at the same instant
// was executed before it, and a taken iteration goes after every
// executed block starting no later than it and before the first one
// starting later. Two taken iterations never share an instant.
//
// All weaves the whole history afresh on every read and keeps nothing.
// That is the weave a reader caching earlier reads would see — one
// weaving each read's new blocks among themselves only and appending
// them — because a read happens at a RunUntil bound T and settles the
// open spans there. Every taken iteration recorded before the read
// starts strictly before T, since the engine takes a solo occurrence
// only strictly before the bound; everything recorded after it starts
// at or after T. So the stable sort by start keeps each read's taken
// iterations ahead of every later read's, none of them is woven in
// front of a block recorded after the read (a taken iteration goes in
// front of a block only if it starts strictly earlier), and no later
// one is woven in front of a block recorded before it (those start no
// later than T).
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
	scratch []row  // the pattern being recorded
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// AddSpan records n back-to-back iterations of one job, the first
// starting at t0 and each lasting period. pattern is one iteration
// drawn on the unit interval, a Segment per thread, all of one job: a
// Run segment from 0 to T1 is a thread busy for that fraction of every
// iteration and idle for the rest of it, a segment in another state a
// thread that spends whole iterations in it. Every iteration expands
// into the threads' segments in pattern order — Run from the
// iteration's start to start + period·T1, then Idle to its end; empty
// segments are dropped. Rank, Thread and CPU are kept as int32.
//
// taken says the engine took the iterations by itself, as occurrences
// of a solo chain (sim.Periodic.ArmSolo), and the owner reports them
// now that the span has settled; All puts them where they would have
// been recorded had they been executed. An executed iteration is
// reported as it happens, with n = 1.
//
// flush, when non-nil, says the owner has a span open behind this
// record: a read calls it before expanding, and the owner must report
// what the engine has taken so far (with n = 0 if nothing). Any later
// record of the job replaces it.
func (t *Tracer) AddSpan(t0, period float64, n int64, taken bool, pattern []Segment, flush func()) {
	if len(pattern) == 0 {
		return
	}
	l := t.laneOf(pattern[0].Job)
	t.lanes[l].flush = flush
	if n <= 0 || !(t0+period > t0) {
		return
	}
	t.scratch = slices.Grow(t.scratch[:0], len(pattern))
	for _, s := range pattern {
		r := row{
			busy: -1, ipc: s.IPC, cycles: s.CyclesPerUs,
			rank: int32(s.Rank), thread: int32(s.Thread), cpu: int32(s.CPU), state: int8(s.State),
		}
		if s.State == Run {
			r.busy = s.T1
		}
		t.scratch = append(t.scratch, r)
	}
	t.push(block{t0: t0, period: period, n: n, job: l, rows: t.pattern(l), taken: taken})
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

// All yields every recorded segment in recording order — taken
// iterations where executing them would have recorded them. Spans
// still open are settled when a read starts. Each read expands the
// blocks afresh, and a consumer that stops early stops the expansion.
// Nothing may be recorded while a read is in progress.
func (t *Tracer) All() iter.Seq[Segment] {
	return func(yield func(Segment) bool) {
		for i := range t.lanes {
			if flush := t.lanes[i].flush; flush != nil {
				t.lanes[i].flush = nil
				flush()
			}
		}
		// The taken iterations, by start time. Those of one job are
		// already in order; the sort interleaves the jobs.
		type occurrence struct {
			t0 float64
			b  *block
		}
		var taken []occurrence
		for i := 0; i < t.nblocks; i++ {
			if b := t.block(i); b.taken {
				for k, at := int64(0), b.t0; k < b.n; k, at = k+1, at+b.period {
					taken = append(taken, occurrence{at, b})
				}
			}
		}
		slices.SortStableFunc(taken, func(x, y occurrence) int { return cmp.Compare(x.t0, y.t0) })
		for i := 0; i < t.nblocks; i++ {
			b := t.block(i)
			if b.taken {
				continue
			}
			for ; len(taken) > 0 && taken[0].t0 < b.t0; taken = taken[1:] {
				if !t.iteration(yield, taken[0].b, taken[0].t0) {
					return
				}
			}
			for k, at := int64(0), b.t0; k < b.n; k, at = k+1, at+b.period {
				if !t.iteration(yield, b, at) {
					return
				}
			}
		}
		for _, o := range taken {
			if !t.iteration(yield, o.b, o.t0) {
				return
			}
		}
	}
}

// iteration yields the segments of the iteration of b that starts at
// t0, and reports whether the consumer wants more.
func (t *Tracer) iteration(yield func(Segment) bool, b *block, t0 float64) bool {
	t1 := t0 + b.period
	job := t.lanes[b.job].name
	for _, r := range t.rowsOf(b.rows) {
		s := Segment{
			Job: job, Rank: int(r.rank), Thread: int(r.thread), CPU: int(r.cpu),
			T0: t0, T1: t1, State: State(r.state), IPC: r.ipc, CyclesPerUs: r.cycles,
		}
		if r.busy >= 0 {
			s.T1, s.State = t0+float64(b.period*r.busy), Run
		}
		if s.T1 > s.T0 && !yield(s) {
			return false
		}
		if r.busy >= 0 && s.T1 < t1 {
			s.T0, s.T1, s.State, s.IPC, s.CyclesPerUs = s.T1, t1, Idle, 0, 0
			if !yield(s) {
				return false
			}
		}
	}
	return true
}

// Segments collects All into a new slice.
func (t *Tracer) Segments() []Segment { return slices.Collect(t.All()) }

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

// Span returns the [min T0, max T1] over all segments (0, 0 for none).
func (t *Tracer) Span() (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for s := range t.All() {
		lo = math.Min(lo, s.T0)
		hi = math.Max(hi, s.T1)
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// threadKey identifies one thread of one job.
type threadKey struct {
	job          string
	rank, thread int
}

// ThreadUtilization returns, per thread of a job, the fraction of
// [t0,t1] spent in Run state. Threads are returned sorted by (rank,
// thread).
func (t *Tracer) ThreadUtilization(job string, t0, t1 float64) []ThreadStat {
	acc := map[threadKey]float64{}
	for s := range t.All() {
		lo, hi := math.Max(s.T0, t0), math.Min(s.T1, t1)
		if s.Job != job || hi <= lo {
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
			Rank: k.rank, Thread: k.thread,
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
	Rank        int
	Thread      int
	Utilization float64
}

// Bucket is the loop behind every timeline view. It cuts [lo, hi]
// (hi > lo) into width equal columns and gives each (job, rank, thread)
// a row of them: a segment value keeps adds v·duration to sum and its
// duration to weight in every column from the one its start falls in
// to the one its end falls in. The rows are handed to row in (job
// name, rank, thread) order, labelled "job rN tNN".
func (t *Tracer) Bucket(lo, hi float64, width int, value func(Segment) (v float64, keep bool), row func(label, job string, sum, weight []float64)) {
	type acc struct {
		threadKey
		sum, weight []float64
	}
	var rows []acc
	at := map[threadKey]int{}
	for s := range t.All() {
		v, keep := value(s)
		if !keep {
			continue
		}
		k := threadKey{s.Job, s.Rank, s.Thread}
		i, ok := at[k]
		if !ok {
			i = len(rows)
			at[k] = i
			rows = append(rows, acc{k, make([]float64, width), make([]float64, width)})
		}
		r := &rows[i]
		b0 := int((s.T0 - lo) / (hi - lo) * float64(width))
		b1 := min(int((s.T1-lo)/(hi-lo)*float64(width)), width-1)
		for b := b0; b <= b1; b++ {
			r.sum[b] += float64(v * s.Duration())
			r.weight[b] += s.Duration()
		}
	}
	slices.SortFunc(rows, func(a, b acc) int {
		return cmp.Or(strings.Compare(a.job, b.job), cmp.Compare(a.rank, b.rank), cmp.Compare(a.thread, b.thread))
	})
	for _, r := range rows {
		row(fmt.Sprintf("%s r%d t%02d", r.job, r.rank, r.thread), r.job, r.sum, r.weight)
	}
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

// RenderTimeline draws a Paraver-like ASCII view of one job (every job
// if job == ""): one row per thread, columns are time buckets, cell
// intensity is the bucketed value of metric ("util" = run fraction,
// "cycles" = cycles/µs normalized to the max, "ipc" = IPC normalized
// to the max).
func (t *Tracer) RenderTimeline(job string, width int, metric string) string {
	lo, hi := t.Span()
	if hi <= lo {
		return "(empty trace)\n"
	}
	var maxVal float64
	if metric == "util" { // a run fraction: its max is 1
		maxVal = 1
	}
	var rows strings.Builder
	t.Bucket(lo, hi, width, func(s Segment) (float64, bool) {
		if job != "" && s.Job != job {
			return 0, false
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
		return v, true
	}, func(label, _ string, sum, weight []float64) {
		line := make([]byte, width)
		for b := range line {
			if weight[b] <= 0 {
				line[b] = ' '
				continue
			}
			v := sum[b] / weight[b]
			if maxVal > 0 {
				v /= maxVal
			}
			line[b] = shade(v)
		}
		fmt.Fprintf(&rows, "%-24s |%s|\n", label, line)
	})
	if rows.Len() == 0 {
		return "(empty trace)\n"
	}
	return fmt.Sprintf("time %.1fs .. %.1fs, metric=%s, max=%.2f\n", lo, hi, metric, maxVal) + rows.String()
}
