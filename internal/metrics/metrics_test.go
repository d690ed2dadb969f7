package metrics

import (
	"iter"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestJobRecordDerivedMetrics(t *testing.T) {
	j := JobRecord{Name: "x", Submit: 100, Start: 150, End: 400}
	if j.WaitTime() != 50 || j.RunTime() != 250 || j.ResponseTime() != 300 {
		t.Errorf("derived metrics wrong: %+v", j)
	}
}

func TestWorkloadAggregates(t *testing.T) {
	var w Workload
	w.Add(JobRecord{Name: "sim", Submit: 0, Start: 0, End: 2400})
	w.Add(JobRecord{Name: "ana", Submit: 300, Start: 2400, End: 2700})
	if w.TotalRunTime() != 2700 {
		t.Errorf("TotalRunTime = %v", w.TotalRunTime())
	}
	// responses: 2400 and 2400.
	if w.AvgResponseTime() != 2400 {
		t.Errorf("AvgResponseTime = %v", w.AvgResponseTime())
	}
	j, ok := w.Job("ana")
	if !ok || j.Submit != 300 {
		t.Errorf("Job lookup = %+v %v", j, ok)
	}
	if _, ok := w.Job("none"); ok {
		t.Error("missing job found")
	}
	if !strings.Contains(w.String(), "sim") {
		t.Error("String misses job name")
	}
}

// TestWorkloadForkSharesFrozenHistory: a fork reads its parent's
// records as history and its own after them; what either lineage adds
// later, the other never sees, through any number of fork levels.
func TestWorkloadForkSharesFrozenHistory(t *testing.T) {
	rec := func(name string) JobRecord { return JobRecord{Name: name, End: 1} }
	names := func(seq iter.Seq[JobRecord]) string {
		var sb strings.Builder
		for j := range seq {
			sb.WriteString(j.Name)
		}
		return sb.String()
	}
	var parent Workload
	parent.Jobs = make([]JobRecord, 0, 8) // spare capacity behind the cut
	parent.Add(rec("a"))
	parent.Add(rec("b"))
	child := parent.Fork()
	parent.Add(rec("p"))
	child.Add(rec("c"))
	grandchild := child.Fork()
	child.Add(rec("d"))
	grandchild.Add(rec("g"))
	for _, tc := range []struct {
		w    *Workload
		want string
	}{{&parent, "abp"}, {child, "abcd"}, {grandchild, "abcg"}} {
		if got := names(tc.w.All()); got != tc.want || tc.w.Count() != len(tc.want) {
			t.Errorf("records %q (count %d), want %q", got, tc.w.Count(), tc.want)
		}
		if _, ok := tc.w.Job("a"); !ok {
			t.Errorf("%q: Job misses a history record", tc.want)
		}
		flat := *tc.w
		flat.Flatten()
		if got := names(slices.Values(flat.Jobs)); got != tc.want {
			t.Errorf("flattened Jobs %q, want %q", got, tc.want)
		}
	}
	if len(grandchild.Jobs) != 1 {
		t.Errorf("the grandchild's own records are %v, want only g", grandchild.Jobs)
	}
}

func TestEmptyWorkload(t *testing.T) {
	var w Workload
	if w.TotalRunTime() != 0 || w.AvgResponseTime() != 0 {
		t.Error("empty workload aggregates should be 0")
	}
}

func TestUtilization(t *testing.T) {
	var w Workload
	w.Add(JobRecord{Name: "a", Submit: 0, Start: 0, End: 100})
	w.Add(JobRecord{Name: "b", Submit: 0, Start: 100, End: 200})
	cpus := func(name string) int {
		if name == "a" {
			return 32
		}
		return 16
	}
	// a: 32 cpus × 100 s; b: 16 × 100; cluster 32 cores × 200 s.
	got := w.Utilization(cpus, 32)
	want := (32.0*100 + 16*100) / (32 * 200)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Utilization = %v, want %v", got, want)
	}
	// Degenerate inputs.
	if (&Workload{}).Utilization(cpus, 32) != 0 {
		t.Error("empty workload utilization should be 0")
	}
	if w.Utilization(cpus, 0) != 0 {
		t.Error("zero cores utilization should be 0")
	}
	// Clamped at 1.
	if w.Utilization(func(string) int { return 1000 }, 1) != 1 {
		t.Error("utilization should clamp at 1")
	}
}

func TestGain(t *testing.T) {
	if g := Gain(100, 90); math.Abs(g-0.1) > 1e-12 {
		t.Errorf("Gain = %v", g)
	}
	if g := Gain(100, 110); math.Abs(g+0.1) > 1e-12 {
		t.Errorf("negative Gain = %v", g)
	}
	if Gain(0, 5) != 0 {
		t.Error("Gain with zero base should be 0")
	}
}

func TestSeriesTable(t *testing.T) {
	a := Series{Label: "Serial"}
	a.Add("Conf. 1", 3300)
	a.Add("Conf. 2", 2800)
	b := Series{Label: "DROM"}
	b.Add("Conf. 1", 3200)
	out := Table(a, b)
	if !strings.Contains(out, "Serial") || !strings.Contains(out, "DROM") {
		t.Errorf("table header missing:\n%s", out)
	}
	if !strings.Contains(out, "Conf. 1") || !strings.Contains(out, "3300.0") {
		t.Errorf("table rows missing:\n%s", out)
	}
	// Missing cell renders as "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing cell not dashed:\n%s", out)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Percentile(50) != 0 {
		t.Error("empty summary should be zeros")
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Observe(v)
	}
	if len(s.values) != 5 {
		t.Errorf("summary holds %d samples, want 5", len(s.values))
	}
	if p := s.Percentile(50); p != 3 {
		t.Errorf("p50 = %v", p)
	}
	if p := s.Percentile(100); p != 5 {
		t.Errorf("p100 = %v", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
}

// TestSpillTallies: spilled records count once globally and once per
// partition on each side of the move, in both retention modes.
func TestSpillTallies(t *testing.T) {
	build := func(aggregate bool) *Workload {
		var w Workload
		if aggregate {
			w.SetAggregate()
		}
		w.Add(JobRecord{Name: "home", Submit: 0, Start: 0, End: 10, Partition: "batch"})
		w.Add(JobRecord{Name: "moved", Submit: 0, Start: 5, End: 20, Partition: "fat", Origin: "batch"})
		w.Add(JobRecord{Name: "stay", Submit: 0, Start: 0, End: 30, Partition: "fat"})
		return &w
	}
	for _, aggregate := range []bool{false, true} {
		w := build(aggregate)
		if got := NewSchedStats(*w, nil, 0).Spilled; got != 1 {
			t.Errorf("aggregate=%v: Spilled = %d, want 1", aggregate, got)
		}
		stats := w.PartitionStats()
		if len(stats) != 2 {
			t.Fatalf("aggregate=%v: partitions = %v", aggregate, stats)
		}
		batch, fat := stats[0], stats[1]
		if batch.SpilledOut != 1 || batch.SpilledIn != 0 {
			t.Errorf("aggregate=%v: batch spill in/out = %d/%d", aggregate, batch.SpilledIn, batch.SpilledOut)
		}
		if fat.SpilledIn != 1 || fat.SpilledOut != 0 {
			t.Errorf("aggregate=%v: fat spill in/out = %d/%d", aggregate, fat.SpilledIn, fat.SpilledOut)
		}
		if !strings.Contains(fat.String(), "spill_in=1") {
			t.Errorf("aggregate=%v: PartitionStat misses spills: %s", aggregate, fat)
		}
		st := NewSchedStats(*w, nil, 0)
		if st.Spilled != 1 {
			t.Errorf("aggregate=%v: SchedStats.Spilled = %d", aggregate, st.Spilled)
		}
		if !strings.Contains(st.String(), "spilled=1") {
			t.Errorf("aggregate=%v: SchedStats.String misses spills: %s", aggregate, st)
		}
	}
	if (JobRecord{Partition: "batch", Origin: "batch"}).Spilled() {
		t.Error("same-partition origin must not count as spilled")
	}
}
