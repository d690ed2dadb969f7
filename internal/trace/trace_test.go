package trace

import (
	"reflect"
	"strings"
	"testing"
)

// add records s as one executed iteration of a one-thread job. It comes
// back as given when its times are small dyadic numbers, which make
// s.T1 - s.T0 and the tracer's s.T0 + (s.T1 - s.T0) exact.
func add(tr *Tracer, s Segment) {
	p := s
	p.T0, p.T1 = 0, 1
	tr.AddSpan(s.T0, s.T1-s.T0, 1, false, []Segment{p}, nil)
}

func sampleTracer() *Tracer {
	t := New()
	// Two threads of job "a": thread 0 busy 0..10, thread 1 busy 0..5
	// then idle 5..10.
	t.AddSpan(0, 10, 1, false, []Segment{
		{Job: "a", Rank: 0, Thread: 0, CPU: 0, T1: 1, State: Run, IPC: 1.0, CyclesPerUs: 2600},
		{Job: "a", Rank: 0, Thread: 1, CPU: 1, T1: 0.5, State: Run, IPC: 1.2, CyclesPerUs: 2600},
	}, nil)
	// Job "b" single segment.
	add(t, Segment{Job: "b", Rank: 0, Thread: 0, CPU: 8, T0: 2, T1: 8, State: Run, IPC: 0.5, CyclesPerUs: 2600})
	return t
}

// TestAddDropsEmptySegments: nothing is stored for an empty pattern, no
// iteration or a period that is not positive.
func TestAddDropsEmptySegments(t *testing.T) {
	tr := New()
	add(tr, Segment{T0: 5, T1: 5})
	add(tr, Segment{T0: 5, T1: 4})
	tr.AddSpan(0, 1, 0, false, []Segment{{T1: 1}}, nil)
	tr.AddSpan(0, 1, 1, false, nil, nil)
	if len(tr.Segments()) != 0 || tr.nblocks != 0 {
		t.Errorf("degenerate records stored: %d segments, %d blocks", len(tr.Segments()), tr.nblocks)
	}
}

// Segments gives back exactly what was recorded, in order, across chunk
// boundaries and when reads and records alternate; the stored records
// hold no pointer (that is what keeps the collector out of them).
func TestSegmentsRoundTripAcrossChunks(t *testing.T) {
	tr := New()
	var want []Segment
	add := func(n int) {
		for i := 0; i < n; i++ {
			k := len(want)
			s := Segment{
				Job: []string{"nest", "pils", "nest", "stream"}[k%4], Rank: k % 7, Thread: k % 16, CPU: k % 48,
				T0: float64(k), T1: float64(k) + 0.5, State: State(k % 3), IPC: 1 / float64(k+1), CyclesPerUs: 2600,
			}
			add(tr, s)
			want = append(want, s)
		}
	}
	for _, n := range []int{1, blocksPerChunk - 2, 1, 1, blocksPerChunk + 5, 0} {
		add(n)
		got := tr.Segments()
		if len(got) != len(want) {
			t.Fatalf("after %d adds: %d segments", len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("segment %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	}
	if len(tr.blocks) != 3 {
		t.Errorf("%d chunks for %d blocks", len(tr.blocks), len(want))
	}
	if jobs := tr.Jobs(); len(jobs) != 3 || jobs[0] != "nest" || jobs[1] != "pils" || jobs[2] != "stream" {
		t.Errorf("Jobs = %v", jobs)
	}
	for _, rt := range []reflect.Type{reflect.TypeOf(block{}), reflect.TypeOf(row{}), reflect.TypeOf(rowsRef{})} {
		for i := 0; i < rt.NumField(); i++ {
			switch k := rt.Field(i).Type.Kind(); k {
			case reflect.Float64, reflect.Int64, reflect.Uint32, reflect.Int32, reflect.Int8, reflect.Bool:
			case reflect.Struct:
				if rt.Field(i).Type != reflect.TypeOf(rowsRef{}) {
					t.Errorf("%s.%s is a %v", rt.Name(), rt.Field(i).Name, rt.Field(i).Type)
				}
			default:
				t.Errorf("%s.%s is a %v: the collector would scan every chunk", rt.Name(), rt.Field(i).Name, k)
			}
		}
	}
}

// TestJobsAndFilter: jobs come in first-appearance order, and the
// per-job views see only the job asked for.
func TestJobsAndFilter(t *testing.T) {
	tr := sampleTracer()
	jobs := tr.Jobs()
	if len(jobs) != 2 || jobs[0] != "a" || jobs[1] != "b" {
		t.Errorf("Jobs = %v", jobs)
	}
	// b's one thread, busy 2..8; a's thread 0 would read 1.
	if st := tr.ThreadUtilization("b", 0, 10); len(st) != 1 || st[0].Utilization != 0.6 {
		t.Errorf("ThreadUtilization(b) = %+v", st)
	}
	if out := tr.RenderTimeline("b", 10, "util"); strings.Contains(out, "a r0") || !strings.Contains(out, "b r0 t00") {
		t.Errorf("RenderTimeline(b):\n%s", out)
	}
	if out := tr.RenderTimeline("", 10, "util"); !strings.Contains(out, "a r0 t01") || !strings.Contains(out, "b r0 t00") {
		t.Errorf("RenderTimeline of every job:\n%s", out)
	}
}

func TestSpan(t *testing.T) {
	tr := sampleTracer()
	lo, hi := tr.Span()
	if lo != 0 || hi != 10 {
		t.Errorf("Span = %v..%v", lo, hi)
	}
	var empty Tracer
	lo, hi = empty.Span()
	if lo != 0 || hi != 0 {
		t.Errorf("empty Span = %v..%v", lo, hi)
	}
}

func TestThreadUtilization(t *testing.T) {
	tr := sampleTracer()
	stats := tr.ThreadUtilization("a", 0, 10)
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Thread != 0 || stats[0].Utilization != 1.0 {
		t.Errorf("thread 0 util = %+v", stats[0])
	}
	if stats[1].Thread != 1 || stats[1].Utilization != 0.5 {
		t.Errorf("thread 1 util = %+v", stats[1])
	}
	// Window clipping: only the busy half of thread 1.
	stats = tr.ThreadUtilization("a", 0, 5)
	if stats[1].Utilization != 1.0 {
		t.Errorf("clipped util = %+v", stats[1])
	}
}

func TestRenderTimeline(t *testing.T) {
	tr := sampleTracer()
	out := tr.RenderTimeline("a", 20, "util")
	if !strings.Contains(out, "a r0 t00") || !strings.Contains(out, "a r0 t01") {
		t.Errorf("timeline missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Errorf("timeline lines = %d:\n%s", len(lines), out)
	}
	// Thread 0 full intensity everywhere; thread 1 has lighter cells in
	// its idle half.
	if !strings.Contains(lines[1], "@") {
		t.Errorf("busy row lacks full shade: %q", lines[1])
	}
	// Cycles metric renders too.
	out = tr.RenderTimeline("a", 10, "cycles")
	if !strings.Contains(out, "metric=cycles") {
		t.Errorf("cycles render:\n%s", out)
	}
	// Empty job.
	if got := tr.RenderTimeline("zzz", 10, "util"); !strings.Contains(got, "empty") {
		t.Errorf("empty render = %q", got)
	}
}
