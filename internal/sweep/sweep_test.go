package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hwmodel"
	"repro/internal/sched"
	"repro/internal/workload"
)

// parseGrid reads a grid spec as slurmsim's -sweep does before it
// runs: parsed, then validated.
func parseGrid(text string) (Grid, error) {
	g, err := workload.ParseSpec(text)
	if err == nil {
		err = g.Validate()
	}
	return g, err
}

// stripWall zeroes the wall-clock fields, which legitimately vary
// between runs; everything left must be bit-identical.
func stripWall(s Summary) Summary {
	s.WallSeconds = 0
	s.Workers = 0
	for i := range s.Results {
		s.Results[i].WallSeconds = 0
	}
	return s
}

// TestSweepDeterministicAcrossWorkerCounts: the full summary — stats,
// cycle and event counts, and the per-job start times of every
// experiment — must be byte-identical whether the grid runs on 1, 4
// or 8 workers. Combined with `go test -cpu 1,4,8`, this pins the
// requirement that parallel execution never changes a scheduling
// decision.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	grid := Grid{
		Seeds: []int64{1, 2},
		Jobs:  300,
		Nodes: 4,
		// Contended traces exercise shrinks, backfills and skips.
		MeanInterarrival: 25,
		KeepJobs:         true,
	}
	var base Summary
	var baseStarts string
	for i, workers := range []int{1, 4, 8} {
		sum, err := Run(grid, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		starts := sum.StartsListing()
		if i == 0 {
			base, baseStarts = stripWall(sum), starts
			continue
		}
		got := stripWall(sum)
		a, _ := json.Marshal(base)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			t.Errorf("workers=%d summary differs from sequential:\n%s\nvs\n%s", workers, b, a)
		}
		if starts != baseStarts {
			t.Errorf("workers=%d per-job start times differ from sequential", workers)
		}
	}
}

// TestSweepMatchesGoldenTrace: a 1-worker sweep over the seeded
// 1000-job golden trace must reproduce exactly the committed golden
// start times of the decision test — the sweep engine adds no
// scheduling behavior of its own.
func TestSweepMatchesGoldenTrace(t *testing.T) {
	sum, err := Run(Grid{Seeds: []int64{1}, Jobs: 1000, Nodes: 4, KeepJobs: true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "workload", "testdata", "sched_starts_seed1_1000.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := sum.StartsListing()
	if got != string(want) {
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("sweep start times diverge from golden at line %d:\n  got  %q\n  want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("listing length changed: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestSweepStreamMatchesMaterialized: the streaming sweep must agree
// with the materialized sweep on every deterministic aggregate.
func TestSweepStreamMatchesMaterialized(t *testing.T) {
	base := Grid{Seeds: []int64{3}, Jobs: 500, Nodes: 4}
	mat, err := Run(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := base
	st.Stream = true
	str, err := Run(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mat.Results {
		m, s := mat.Results[i], str.Results[i]
		if m.Jobs != s.Jobs || m.Cycles != s.Cycles {
			t.Errorf("%s: stream jobs/cycles %d/%d vs materialized %d/%d",
				m.Policy, s.Jobs, s.Cycles, m.Jobs, m.Cycles)
		}
		if m.Stats.Makespan != s.Stats.Makespan || m.Stats.MeanWait != s.Stats.MeanWait ||
			m.Stats.MeanResponse != s.Stats.MeanResponse {
			t.Errorf("%s: stream stats %+v vs materialized %+v", m.Policy, s.Stats, m.Stats)
		}
	}
}

// TestParseGrid covers the spec format as a grid reads it.
func TestParseGrid(t *testing.T) {
	g, err := parseGrid("policies=fcfs,easy;seeds=1,3-5;jobs=2000;nodes=8;ia=45;stream=1")
	if err != nil {
		t.Fatal(err)
	}
	want := Grid{
		Policies:         []string{"fcfs", "easy"},
		Seeds:            []int64{1, 3, 4, 5},
		Jobs:             2000,
		Nodes:            8,
		MeanInterarrival: 45,
		Stream:           true,
	}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("ParseGrid = %+v, want %+v", g, want)
	}
	if _, err := parseGrid("bogus"); err == nil {
		t.Error("malformed field should fail")
	}
	if _, err := parseGrid("zzz=1"); err == nil {
		t.Error("unknown key should fail")
	}
	if _, err := parseGrid("seeds=9-1"); err == nil {
		t.Error("inverted seed range should fail")
	}
	// A negative node count used to select the default 4 nodes.
	for _, spec := range []string{"nodes=-3", "nodes=3000000"} {
		if _, err := parseGrid(spec); err == nil || !strings.Contains(err.Error(), "Nodes") {
			t.Errorf("%s: error = %v, want one naming Nodes", spec, err)
		}
	}
	if _, err := Run(Grid{Policies: []string{"fcfs"}, Jobs: 10, Nodes: -3}, 1); err == nil || !strings.Contains(err.Error(), "Nodes") {
		t.Errorf("Run with Nodes -3: error = %v", err)
	}
	// Whitespace-separated fields; "all" expands eagerly so it still
	// counts when combined with sched= cells below.
	g, err = parseGrid("policies=all seeds=2 jobs=10")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Policies, sched.Names()) || len(g.Seeds) != 1 || g.Seeds[0] != 2 || g.Jobs != 10 {
		t.Errorf("ParseGrid whitespace form = %+v", g)
	}
	g, err = parseGrid("policies=all;sched=batch=easy,fat=fcfs")
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]string{}, sched.Names()...), "batch=easy,fat=fcfs"); !reflect.DeepEqual(g.Policies, want) {
		t.Errorf("all + sched cell = %v, want %v", g.Policies, want)
	}
	// Heterogeneous cluster + fault-rate keys.
	g, err = parseGrid("policies=fcfs;cluster=hetero;cancel=0.05;fail=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if g.Cluster.String() != hwmodel.HeteroMN3().String() {
		t.Errorf("cluster = %q", g.Cluster)
	}
	if g.CancelRate != 0.05 || g.FailRate != 0.1 {
		t.Errorf("rates = %g/%g", g.CancelRate, g.FailRate)
	}
	if _, err := parseGrid("cluster=bogus:1"); err == nil {
		t.Error("bad cluster spec should fail")
	}
	if _, err := parseGrid("cancel=1.5"); err == nil {
		t.Error("out-of-range rate should fail")
	}
	// Policy-set cells (sched=, repeatable) and the spillover knobs.
	g, err = parseGrid("sched=batch=easy,fat=malleable-shrink;sched=easy;cluster=hetero;spill=1;spillafter=30;spilldepth=2")
	if err != nil {
		t.Fatal(err)
	}
	want2 := []string{"batch=easy,fat=malleable-shrink", "easy"}
	if !reflect.DeepEqual(g.Policies, want2) {
		t.Errorf("sched cells = %v, want %v", g.Policies, want2)
	}
	if !g.Spill || g.SpillAfter != 30 || g.SpillDepth != 2 {
		t.Errorf("spill knobs = %v/%g/%d", g.Spill, g.SpillAfter, g.SpillDepth)
	}
	if _, err := parseGrid("sched=batch=bogus"); err == nil {
		t.Error("bad policy set should fail")
	}
	if _, err := parseGrid("spillafter=-1"); err == nil {
		t.Error("negative spillafter should fail")
	}
	if _, err := parseGrid("spilldepth=x"); err == nil {
		t.Error("non-numeric spilldepth should fail")
	}
	// Node fault-injection keys. The script value rides a single grid
	// field, so its entries use '+' — ';' belongs to the grid grammar.
	g, err = parseGrid("nodefaults=node0:down@10..20+node1:drain@30..40;mtbf=5000;mttr=600;requeue=2")
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeFaults != "node0:down@10..20+node1:drain@30..40" ||
		g.MTBF != 5000 || g.MTTR != 600 || g.MaxRequeues != 2 {
		t.Errorf("fault knobs = %q/%g/%g/%d", g.NodeFaults, g.MTBF, g.MTTR, g.MaxRequeues)
	}
	if _, err := parseGrid("mtbf=-1"); err == nil {
		t.Error("negative mtbf should fail")
	}
	if _, err := parseGrid("mttr=x"); err == nil {
		t.Error("non-numeric mttr should fail")
	}
	if _, err := parseGrid("requeue=x"); err == nil {
		t.Error("non-numeric requeue should fail")
	}
	// Boolean keys take what strconv.ParseBool takes and nothing else:
	// "on" used to read as off without a word.
	for _, spec := range []string{"spill=on", "stream=yes", "check=y"} {
		key, _, _ := strings.Cut(spec, "=")
		if _, err := parseGrid(spec); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s: error = %v, want one naming %s", spec, err, key)
		}
	}
	// The aliases read as their keys.
	g, err = parseGrid("policy=fcfs;seed=3;interarrival=45")
	if err != nil || !reflect.DeepEqual(g, Grid{Policies: []string{"fcfs"}, Seeds: []int64{3}, MeanInterarrival: 45}) {
		t.Errorf("aliases = %+v, %v", g, err)
	}
	g, err = parseGrid("spill=t;stream=0;check=TRUE")
	if err != nil || !g.Spill || g.Stream || !g.DebugInvariants {
		t.Errorf("spill=t;stream=0;check=TRUE = %+v, %v", g, err)
	}
}

// TestSweepSpilloverDeterministicAcrossWorkerCounts: a heterogeneous
// grid mixing per-partition policy sets with single policies, with
// spillover on, must produce byte-identical summaries at any worker
// count (this is the grid CI also runs under -race at -cpu 1,4,8).
func TestSweepSpilloverDeterministicAcrossWorkerCounts(t *testing.T) {
	grid := Grid{
		Policies:         []string{"easy", "batch=easy,fat=malleable-shrink"},
		Seeds:            []int64{1},
		Jobs:             300,
		Cluster:          hwmodel.HeteroMN3(),
		MeanInterarrival: 20,
		Spill:            true,
		KeepJobs:         true,
	}
	var base Summary
	var baseStarts string
	for i, workers := range []int{1, 4, 8} {
		sum, err := Run(grid, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, r := range sum.Results {
			if r.Stats.Spilled == 0 {
				t.Errorf("workers=%d %s: no spills on the contended hetero trace", workers, r.Policy)
			}
		}
		starts := sum.StartsListing()
		if i == 0 {
			base, baseStarts = stripWall(sum), starts
			continue
		}
		got := stripWall(sum)
		a, _ := json.Marshal(base)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			t.Errorf("workers=%d spillover summary differs from sequential:\n%s\nvs\n%s", workers, b, a)
		}
		if starts != baseStarts {
			t.Errorf("workers=%d spillover per-job start times differ from sequential", workers)
		}
	}
}

// TestSweepNodeFaultDeterministicAcrossWorkerCounts: a heterogeneous
// grid with scripted outages, a seeded background fault stream and the
// controller's invariant checks on must produce byte-identical
// summaries — including the requeue and node-failed tallies — at any
// worker count. Each experiment's fault stream is seeded from its own
// trace seed, so parallel workers share no RNG state. CI also runs
// this under -race at -cpu 1,4,8: degraded-capacity accounting must
// hold under every interleaving of the worker pool.
func TestSweepNodeFaultDeterministicAcrossWorkerCounts(t *testing.T) {
	grid := Grid{
		Policies:         []string{"easy", "malleable-expand"},
		Seeds:            []int64{1, 2},
		Jobs:             250,
		Cluster:          hwmodel.HeteroMN3(),
		MeanInterarrival: 20,
		NodeFaults:       "node0:down@1500..2300+node4:down@2000..3500+node2:drain@4000..6000",
		MTBF:             4000,
		MTTR:             700,
		MaxRequeues:      1,
		KeepJobs:         true,
		DebugInvariants:  true,
	}
	var base Summary
	var baseStarts string
	for i, workers := range []int{1, 4, 8} {
		sum, err := Run(grid, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requeues := 0
		for _, r := range sum.Results {
			requeues += r.Stats.Requeues
		}
		if requeues == 0 {
			t.Errorf("workers=%d: no requeues on the faulted grid; the check is vacuous", workers)
		}
		starts := sum.StartsListing()
		if i == 0 {
			base, baseStarts = stripWall(sum), starts
			continue
		}
		got := stripWall(sum)
		a, _ := json.Marshal(base)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			t.Errorf("workers=%d node-fault summary differs from sequential:\n%s\nvs\n%s", workers, b, a)
		}
		if starts != baseStarts {
			t.Errorf("workers=%d node-fault per-job start times differ from sequential", workers)
		}
	}
}

// TestSweepHeteroFaultGrid runs a small heterogeneous fault grid end
// to end and checks the per-partition split reaches the results.
func TestSweepHeteroFaultGrid(t *testing.T) {
	sum, err := Run(Grid{
		Policies: []string{"malleable-expand"}, Seeds: []int64{1}, Jobs: 120,
		Cluster: hwmodel.HeteroMN3(), CancelRate: 0.1, FailRate: 0.1,
		MeanInterarrival: 25,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := sum.Results[0]
	if r.Stats.Cancelled == 0 && r.Stats.Failed == 0 {
		t.Fatalf("fault grid produced no faults: %+v", r.Stats)
	}
	if len(r.Partitions) != 2 {
		t.Fatalf("partitions = %v, want batch+fat", r.Partitions)
	}
	jobs := 0
	for _, ps := range r.Partitions {
		jobs += ps.Jobs
	}
	if jobs != r.Jobs {
		t.Fatalf("partition split %d != %d jobs", jobs, r.Jobs)
	}
}

// TestSweepOutputFormats smoke-tests the JSON/CSV/table writers.
func TestSweepOutputFormats(t *testing.T) {
	sum, err := Run(Grid{Policies: []string{"fcfs"}, Seeds: []int64{1}, Jobs: 50, Nodes: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var jb bytes.Buffer
	if err := sum.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(jb.Bytes()) {
		t.Error("WriteJSON produced invalid JSON")
	}
	var cb bytes.Buffer
	if err := sum.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(cb.String(), "\n"); lines != 2 {
		t.Errorf("CSV lines = %d, want header + 1 row", lines)
	}
	if table := sum.Table(); !strings.Contains(table, "fcfs") {
		t.Errorf("table missing policy row:\n%s", table)
	}
}
