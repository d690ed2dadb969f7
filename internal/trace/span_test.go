package trace

import (
	"slices"
	"testing"
)

// unit draws one iteration of job on the unit interval: thread 0 busy
// throughout, thread 1 for frac of it, thread 2 removed.
func unit(job string, frac float64) []Segment {
	return []Segment{
		{Job: job, Thread: 0, CPU: 4, T1: 1, State: Run, IPC: 1.5, CyclesPerUs: 2600},
		{Job: job, Thread: 1, CPU: 5, T1: frac, State: Run, IPC: 1.5, CyclesPerUs: 2600},
		{Job: job, Thread: 2, CPU: -1, T1: 1, State: Removed},
	}
}

// TestAddSpanExpandsLikeAdd: iterations recorded as spans — executed
// ones as they happen, the ones the engine took when their span settles,
// after later executed ones of another job — come back as the segments,
// in the order, a run that executed every iteration in time order would
// have recorded them, written out below.
func TestAddSpanExpandsLikeAdd(t *testing.T) {
	a, b := unit("a", 0.75), unit("b", 0)
	spans := New()
	// a: executed at 0, then 7 taken (1..7), executed at 8.
	// b: executed at 0.5, 3.5 and 6.5, nothing taken.
	spans.AddSpan(0, 1, 1, false, a, nil)
	spans.AddSpan(0.5, 3, 1, false, b, nil)
	spans.AddSpan(3.5, 3, 1, false, b, nil)
	spans.AddSpan(6.5, 1.5, 1, false, b, nil)
	spans.AddSpan(1, 1, 7, true, a, nil)
	spans.AddSpan(8, 1, 1, false, a, nil)
	// a: run, run, idle, removed; b: run, idle (its zero-length run is
	// dropped), removed.
	iterA := func(t0 float64) []Segment {
		return []Segment{
			{Job: "a", Thread: 0, CPU: 4, T0: t0, T1: t0 + 1, State: Run, IPC: 1.5, CyclesPerUs: 2600},
			{Job: "a", Thread: 1, CPU: 5, T0: t0, T1: t0 + 0.75, State: Run, IPC: 1.5, CyclesPerUs: 2600},
			{Job: "a", Thread: 1, CPU: 5, T0: t0 + 0.75, T1: t0 + 1, State: Idle},
			{Job: "a", Thread: 2, CPU: -1, T0: t0, T1: t0 + 1, State: Removed},
		}
	}
	iterB := func(t0, t1 float64) []Segment {
		return []Segment{
			{Job: "b", Thread: 0, CPU: 4, T0: t0, T1: t1, State: Run, IPC: 1.5, CyclesPerUs: 2600},
			{Job: "b", Thread: 1, CPU: 5, T0: t0, T1: t1, State: Idle},
			{Job: "b", Thread: 2, CPU: -1, T0: t0, T1: t1, State: Removed},
		}
	}
	want := slices.Concat(
		iterA(0), iterB(0.5, 3.5), iterA(1), iterA(2), iterA(3), iterB(3.5, 6.5), iterA(4), iterA(5), iterA(6),
		iterB(6.5, 8), iterA(7), iterA(8),
	)
	if got := spans.Segments(); !slices.Equal(got, want) {
		t.Fatalf("spans expand to\n%+v\nwant\n%+v", got, want)
	}
	if !slices.Equal(spans.Jobs(), []string{"a", "b"}) {
		t.Errorf("Jobs = %v", spans.Jobs())
	}
	// The pattern of a job is stored once while it does not change.
	if n := len(spans.rows[0]); n != 6 {
		t.Errorf("%d pattern rows stored for two patterns of three, six blocks", n)
	}
	if spans.nblocks != 6 {
		t.Errorf("%d blocks", spans.nblocks)
	}
}

// TestTakenIterationGoesAfterWhatWasExecutedAtItsInstant: the engine
// takes an iteration only when it is alone at its instant, so an
// executed block that starts at the same time was executed before it.
func TestTakenIterationGoesAfterWhatWasExecutedAtItsInstant(t *testing.T) {
	a, b := unit("a", 1), unit("b", 1)
	tr := New()
	tr.AddSpan(0, 1, 1, false, a, nil)
	tr.AddSpan(2, 5, 1, false, b, nil) // executed at 2, where a's second taken iteration starts
	tr.AddSpan(1, 1, 3, true, a, nil)
	var order []string
	for _, s := range tr.Segments() {
		if s.Thread == 0 {
			order = append(order, s.Job)
		}
	}
	if want := []string{"a", "a", "b", "a", "a"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// TestSegmentsSettlesOpenSpans: a read calls the flusher a record left
// behind, once, and sees what it reports; a later record of the job
// withdraws it.
func TestSegmentsSettlesOpenSpans(t *testing.T) {
	a := unit("a", 1)
	tr := New()
	calls := 0
	flush := func() {
		calls++
		tr.AddSpan(1, 1, 2, true, a, nil)
	}
	tr.AddSpan(0, 1, 1, false, a, flush)
	if n := len(tr.Segments()); n != 3*3 || calls != 1 {
		t.Fatalf("%d segments after %d flushes, want 9 and 1", n, calls)
	}
	if n := len(tr.Segments()); n != 9 || calls != 1 {
		t.Fatalf("second read: %d segments, %d flushes", n, calls)
	}
	tr.AddSpan(3, 1, 1, false, a, flush)
	tr.AddSpan(4, 1, 0, true, a, nil) // settled with nothing taken
	if n := len(tr.Segments()); n != 12 || calls != 1 {
		t.Fatalf("after a withdrawn flusher: %d segments, %d flushes", n, calls)
	}
}

// TestAllStopsEarly: a reader that stops after k segments has seen the
// first k of the full read, has settled the open spans once, and leaves
// the next full read as it would have been.
func TestAllStopsEarly(t *testing.T) {
	build := func() (*Tracer, *int) {
		a, b := unit("a", 0.5), unit("b", 1)
		tr, calls := New(), new(int)
		tr.AddSpan(0, 1, 1, false, a, func() {
			*calls++
			tr.AddSpan(1, 1, 3, true, a, nil)
		})
		tr.AddSpan(1.5, 2, 1, false, b, nil)
		return tr, calls
	}
	ref, _ := build()
	want := ref.Segments()
	if len(want) != 4*4+3 {
		t.Fatalf("%d segments", len(want))
	}
	for k := 0; k <= len(want); k++ {
		tr, calls := build()
		var head []Segment
		for s := range tr.All() {
			if len(head) == k {
				break
			}
			head = append(head, s)
		}
		if !slices.Equal(head, want[:k]) || *calls != 1 {
			t.Fatalf("stopped at %d: read %+v after %d flushes", k, head, *calls)
		}
		if got := tr.Segments(); !slices.Equal(got, want) || *calls != 1 {
			t.Fatalf("stopped at %d: the next read has %d segments after %d flushes", k, len(got), *calls)
		}
	}
}

// uc2Shaped builds a tracer holding what a traced UC2 run records: two
// jobs of 2 ranks x 16 threads, 2 689 iterations between them in a few
// dozen blocks, a shrunk phase in which threads idle part of each
// iteration.
func uc2Shaped() *Tracer {
	pattern := func(job string, threads int, frac float64) []Segment {
		var p []Segment
		for r := 0; r < 2; r++ {
			for th := 0; th < 16; th++ {
				s := Segment{Job: job, Rank: r, Thread: th, CPU: th, T1: 1, State: Run, IPC: 1.1, CyclesPerUs: 2600}
				switch {
				case th >= threads:
					s.CPU, s.State, s.IPC, s.CyclesPerUs = -1, Removed, 0, 0
				case th >= 4:
					s.T1 = frac
				}
				p = append(p, s)
			}
		}
		return p
	}
	tr := New()
	span := func(job string, t0, period float64, n int64, p []Segment) float64 {
		tr.AddSpan(t0, period, 1, false, p, nil)
		tr.AddSpan(t0+period, period, n-1, true, p, nil)
		return t0 + float64(n)*period
	}
	at := span("nest", 40, 1.21, 960, pattern("nest", 16, 1))
	nest, cn := at, at+120
	for i := 0; i < 8; i++ { // the shared phase, woken now and then
		nest = span("nest", nest, 2.53, 50, pattern("nest", 8, 0.5))
		cn = span("coreneuron", cn, 2.61, 48, pattern("coreneuron", 8, 0.5))
	}
	span("nest", nest, 1.21, 945, pattern("nest", 16, 1))
	return tr
}

// BenchmarkSegmentsUC2 is what a reader pays to stream a finished
// UC2-sized trace.
func BenchmarkSegmentsUC2(b *testing.B) {
	tr := uc2Shaped()
	n := 0
	for range tr.All() {
		n++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := 0
		for range tr.All() {
			m++
		}
		if m != n {
			b.Fatal("expansion changed")
		}
	}
	b.ReportMetric(float64(n), "segments")
	b.ReportMetric(float64(tr.nblocks), "blocks")
}
