package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0},       // 9 beyond the median
		{20, 50},      // 10 beyond the median
		{150, 90},     // 15 beyond p90, 7 beyond p95
		{240, 95},     // 12 beyond p95, 2 beyond p99
		{2400, 99},    // 24 beyond p99, 2 beyond p99.9
		{10000, 99.9}, // 10 beyond p99.9
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if q1, q3 := quartiles([]float64{4, 3, 2, 1}); q1 != 1.25 || q3 != 3.75 {
		t.Errorf("quartiles = %v, %v, want 1.25, 3.75", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100, Layer: "harness"},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40, Layer: "workload"},   // nested: has a child of its own
		{ID: 3, Parent: 2, StartNs: 20, EndNs: 30, Layer: "slurm"},      //
		{ID: 4, Parent: 1, StartNs: 30, EndNs: 60, Layer: "schedd"},     // overlaps span 2 for 10
		{ID: 5, Parent: 1, StartNs: 90, EndNs: 120, Layer: "schedd"},    // outlives its parent by 20
		{ID: 6, Parent: 1, StartNs: 35, EndNs: 38, Layer: "schedd"},     // wholly inside the overlap
		{ID: 7, Parent: 0, StartNs: 200, EndNs: 250, Layer: "harness"},  // a second root
		{ID: 8, Parent: 7, StartNs: 200, EndNs: 250, Layer: "workload"}, // covering all of it
	}
	want := map[int]int64{
		1: 100 - (50 + 10), // children cover [10,60] and [90,100]
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 30,
		6: 3,
		7: 0,
		8: 50,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
	byLayer := layerSelf(spans)
	if got, want := byLayer["schedd"], 63e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("schedd self time = %v, want %v", got, want)
	}
}

// stallServer answers every request at once except the stallAt-th,
// which it holds for stall.
func stallServer(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
}

func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	const (
		stallAt = 5
		stall   = 300 * time.Millisecond
		rate    = 100.0 // one request every 10 ms
		n       = 60
	)
	get := func(int) request { return request{kind: "whatif", method: "GET", path: "/"} }

	srv := stallServer(stallAt, stall)
	defer srv.Close()
	open, _ := newLoadgen(srv.URL, 1).run(nil, 1, n, rate, false, get)
	if f := failures(open); f != 0 {
		t.Fatalf("%d requests failed", f)
	}
	// The request behind the stalled one was due 10 ms into the stall:
	// it must absorb the rest of it, and show as sent late.
	next := open[stallAt+1]
	if next.ms < 200 || next.lateMs < 200 {
		t.Errorf("request behind the stall: latency %.0f ms, sent %.0f ms late; want both >= 200", next.ms, next.lateMs)
	}
	if next.svcMs > 100 {
		t.Errorf("request behind the stall spent %.0f ms in the service; the stall is the generator's wait, not service time", next.svcMs)
	}
	// Every request that came due during the stall pays for it.
	for i := stallAt + 1; i <= stallAt+10; i++ {
		if open[i].ms < 150 {
			t.Errorf("request %d came due during the stall but shows %.0f ms", i, open[i].ms)
		}
	}
	late := make([]float64, len(open))
	for i, s := range open {
		late[i] = s.lateMs
	}
	if p := percentile(late, 99); p < 200 {
		t.Errorf("generator lateness p99 = %.0f ms, want the stall to show (>= 200)", p)
	}
	if first := open[0]; first.lateMs > 100 {
		t.Errorf("first request sent %.0f ms late with nothing in its way", first.lateMs)
	}

	// The same stall in a closed loop is paid by one request only: the
	// next is not sent until the stalled one returns.
	srv2 := stallServer(stallAt, stall)
	defer srv2.Close()
	closed, _ := newLoadgen(srv2.URL, 1).run(nil, 1, n, 0, false, get)
	slow := 0
	for _, s := range closed {
		if s.ms >= 200 {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("closed loop: %d requests saw the stall, want exactly the stalled one", slow)
	}
}

func TestPickCandidatesRefusesJobsAtOrBehindHorizon(t *testing.T) {
	var subs []workload.Submission
	for i, at := range []float64{10, 20, 20.001, 30, 40} {
		sub := workload.Submission{At: at}
		sub.Job.Name = string(rune('a' + i))
		subs = append(subs, sub)
	}
	got, err := pickCandidates(subs, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"c", "d", "e"}; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("candidates = %v, want %v (a and b are at or behind the horizon)", got, want)
	}
	if _, err := pickCandidates(subs, 20, 4); err == nil {
		t.Error("asking for more candidates than lie beyond the horizon must fail, not reach behind it")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d    metricDecl
		a, b side
		want string
	}{
		{lower, side{value: 100}, side{value: 105}, "unchanged"},
		{lower, side{value: 100}, side{value: 115}, "regressed"},
		{lower, side{value: 100}, side{value: 85}, "improved"},
		{higher, side{value: 100}, side{value: 85}, "regressed"},
		{higher, side{value: 100}, side{value: 115}, "improved"},
		{lower, side{value: 100, spread: 0.2}, side{value: 115}, "unresolved"}, // a 15% change inside a 20% spread
		{lower, side{value: 100, spread: 0.2}, side{value: 130}, "regressed"},  // clears both
		{lower, side{value: 100}, side{value: 104, spread: 0.12}, "unresolved"},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %+v, %+v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestQuickSuiteEmitsDeclaredMetrics runs every workload at smoke
// size, untraced and traced, and requires exactly the metric names
// BENCHMARK.json declares, correct outputs and no failed operation.
func TestQuickSuiteEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	sch, err := loadSchema()
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sch.Workloads), len(workloadDefs))
	}
	for i, w := range sch.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the benchmark", i, w.Name, workloadDefs[i].name)
		}
	}
	for _, d := range workloadDefs {
		for _, traced := range []bool{false, true} {
			e := newEnv(3, 0.2, true)
			var rep *report
			if traced {
				rep, err = runTraced(d.name, e, sch, nil, "", true)
			} else {
				rep, err = runUntraced(d.name, e, sch, nil)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", d.name, traced, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					d.name, traced, rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Problems)
			}
			var got, want []string
			for name, m := range rep.Result.Metrics {
				got = append(got, name)
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", d.name, traced, name, m.Value)
				}
			}
			for _, decl := range sch.decls(traced) {
				want = append(want, decl.Name)
				if rep.Result.Metrics[decl.Name].Unit != decl.Unit {
					t.Errorf("%s: %s has unit %q, declared %q", d.name, decl.Name, rep.Result.Metrics[decl.Name].Unit, decl.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics emitted, %d declared", d.name, traced, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s traced=%v: emitted %s, declared %s", d.name, traced, got[i], want[i])
				}
			}
			if !traced {
				for _, decl := range sch.EndToEnd {
					if rep.Result.Metrics[decl.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", d.name, decl.Name, rep.Result.Metrics[decl.Name].Value)
					}
				}
			}
		}
	}
}
