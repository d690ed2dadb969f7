package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// Paraver state values for the .prv export, following the standard
// Paraver semantics the paper's figures use: 0 = idle, 1 = running.
const (
	prvStateIdle    = 0
	prvStateRunning = 1
)

// WritePCF emits the Paraver configuration file accompanying a .prv:
// the state-value legend Paraver uses to color the timeline.
func (t *Tracer) WritePCF(w io.Writer) error {
	_, err := io.WriteString(w, `DEFAULT_OPTIONS

LEVEL               THREAD
UNITS               NANOSEC
LOOK_BACK           100
SPEED               1
FLAG_ICONS          ENABLED
NUM_OF_STATE_COLORS 1000
YMAX_SCALE          37

STATES
0    Idle
1    Running

STATES_COLOR
0    {117,195,255}
1    {0,0,255}
`)
	return err
}

// WriteROW emits the Paraver resource/row labels file: one label per
// (job, rank, thread) row, matching the .prv object order —
// applications in first-appearance order (Jobs), then rank, then
// thread.
func (t *Tracer) WriteROW(w io.Writer) error {
	seen := map[threadKey]bool{}
	var rows []threadKey
	for s := range t.All() {
		if r := (threadKey{s.Job, s.Rank, s.Thread}); !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	appl := map[string]int{}
	for i, j := range t.Jobs() {
		appl[j] = i
	}
	slices.SortFunc(rows, func(a, b threadKey) int {
		return cmp.Or(cmp.Compare(appl[a.job], appl[b.job]), cmp.Compare(a.rank, b.rank), cmp.Compare(a.thread, b.thread))
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "LEVEL THREAD SIZE %d\n", len(rows))
	for _, r := range rows {
		fmt.Fprintf(bw, "%s.%d.%d\n", r.job, r.rank+1, r.thread+1)
	}
	return bw.Flush()
}

// WritePRV exports the trace in the Paraver .prv text format (the
// format Extrae produces and Figures 5/13 of the paper visualize).
// Each (job, rank, thread) becomes an application/task/thread triple;
// Run segments emit state 1 records, Idle segments state 0. Times are
// in nanoseconds, as Paraver expects.
//
// Record format: 1:cpu:appl:task:thread:begin:end:state
func (t *Tracer) WritePRV(w io.Writer) error {
	// One pass gathers the records and what the header declares: the
	// time span, the tasks (ranks) per application and threads per
	// task, and the CPUs — as many as the records address (id+1), one
	// at least.
	type taskKey struct {
		job  string
		rank int
	}
	threadsPer := map[taskKey]int{}
	ranksPer := map[string]int{}
	var segs []Segment
	lo, hi := math.Inf(1), math.Inf(-1)
	nCPU := 1
	for s := range t.All() {
		segs = append(segs, s)
		lo, hi = math.Min(lo, s.T0), math.Max(hi, s.T1)
		k := taskKey{s.Job, s.Rank}
		threadsPer[k] = max(threadsPer[k], s.Thread+1)
		ranksPer[s.Job] = max(ranksPer[s.Job], s.Rank+1)
		nCPU = max(nCPU, s.CPU+1)
	}
	if len(segs) == 0 {
		lo, hi = 0, 0
	}
	// Applications are jobs in first-appearance order.
	jobs := t.Jobs()
	appOf := map[string]int{}
	for i, j := range jobs {
		appOf[j] = i + 1
	}

	// Header: #Paraver (dd/mm/yy at hh:mm):duration_ns:resource:appl_list
	// Resource model: one node of nCPU CPUs.
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#Paraver (01/01/18 at 00:00):%d_ns:1(%d):%d:", int64((hi-lo)*1e9), nCPU, len(jobs))
	for i, j := range jobs {
		if i > 0 {
			bw.WriteByte(',')
		}
		// appl: ntasks(threads_task1:node,...)
		fmt.Fprintf(bw, "%d(", ranksPer[j])
		for r := 0; r < ranksPer[j]; r++ {
			if r > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%d:1", threadsPer[taskKey{j, r}])
		}
		bw.WriteByte(')')
	}
	bw.WriteByte('\n')

	// Records, sorted by begin time for well-formedness.
	sort.Slice(segs, func(i, j int) bool { return segs[i].T0 < segs[j].T0 })
	for _, s := range segs {
		state := prvStateIdle
		if s.State == Run {
			state = prvStateRunning
		}
		if s.State == Removed {
			continue // removed threads simply have no records
		}
		cpu := s.CPU + 1 // Paraver CPUs are 1-based; -1 (unbound) -> 0
		if s.CPU < 0 {
			cpu = 0
		}
		fmt.Fprintf(bw, "1:%d:%d:%d:%d:%d:%d:%d\n",
			cpu, appOf[s.Job], s.Rank+1, s.Thread+1,
			int64((s.T0-lo)*1e9), int64((s.T1-lo)*1e9), state)
	}
	return bw.Flush()
}
