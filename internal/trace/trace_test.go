package trace

import (
	"reflect"
	"strings"
	"testing"
)

func sampleTracer() *Tracer {
	t := New()
	// Two threads of job "a": thread 0 busy 0..10, thread 1 busy 0..5
	// then idle 5..10.
	t.Add(Segment{Job: "a", Rank: 0, Thread: 0, CPU: 0, T0: 0, T1: 10, State: Run, IPC: 1.0, CyclesPerUs: 2600})
	t.Add(Segment{Job: "a", Rank: 0, Thread: 1, CPU: 1, T0: 0, T1: 5, State: Run, IPC: 1.2, CyclesPerUs: 2600})
	t.Add(Segment{Job: "a", Rank: 0, Thread: 1, CPU: 1, T0: 5, T1: 10, State: Idle})
	// Job "b" single segment.
	t.Add(Segment{Job: "b", Rank: 0, Thread: 0, CPU: 8, T0: 2, T1: 8, State: Run, IPC: 0.5, CyclesPerUs: 2600})
	return t
}

func TestAddDropsEmptySegments(t *testing.T) {
	tr := New()
	tr.Add(Segment{T0: 5, T1: 5})
	tr.Add(Segment{T0: 5, T1: 4})
	if len(tr.Segments()) != 0 {
		t.Errorf("degenerate segments stored: %d", len(tr.Segments()))
	}
}

// Segments gives back exactly what Add took, in order, across chunk
// boundaries and when reads and adds alternate; the stored records
// hold no pointer (that is what keeps the collector out of them).
func TestSegmentsRoundTripAcrossChunks(t *testing.T) {
	tr := New()
	var want []Segment
	add := func(n int) {
		for i := 0; i < n; i++ {
			k := len(want)
			s := Segment{
				Job: []string{"nest", "pils", "nest", "stream"}[k%4], Rank: k % 7, Thread: k % 16, CPU: k % 48,
				T0: float64(k) * 0.1, T1: float64(k)*0.1 + 0.05, State: State(k % 3), IPC: 1 / float64(k+1), CyclesPerUs: 2600,
			}
			tr.Add(s)
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

func TestJobsAndFilter(t *testing.T) {
	tr := sampleTracer()
	jobs := tr.Jobs()
	if len(jobs) != 2 || jobs[0] != "a" || jobs[1] != "b" {
		t.Errorf("Jobs = %v", jobs)
	}
	if got := len(tr.Filter("a")); got != 3 {
		t.Errorf("Filter(a) = %d segments", got)
	}
	if got := len(tr.Filter("")); got != 4 {
		t.Errorf("Filter(all) = %d segments", got)
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

func TestIPCHistogram(t *testing.T) {
	tr := sampleTracer()
	h := tr.IPCHistogram("a", 4, 2.0) // bins of 0.5
	// IPC 1.0 for 10s in bin 2, IPC 1.2 for 5s in bin 2.
	if h[2] != 15 {
		t.Errorf("histogram = %v", h)
	}
	// Out-of-range IPC clamps to the last bin.
	tr.Add(Segment{Job: "a", Thread: 2, T0: 0, T1: 1, State: Run, IPC: 99})
	h = tr.IPCHistogram("a", 4, 2.0)
	if h[3] != 1 {
		t.Errorf("clamped histogram = %v", h)
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
