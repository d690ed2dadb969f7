package main

import (
	"flag"
	"os"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestBuildScenario(t *testing.T) {
	if _, err := buildScenario("uc1", "nest", 1, "pils", 2, false); err != nil {
		t.Errorf("uc1: %v", err)
	}
	if _, err := buildScenario("uc2", "", 0, "", 0, true); err != nil {
		t.Errorf("uc2: %v", err)
	}
	bad := []struct {
		name, sim string
		simConf   int
		ana       string
		anaConf   int
	}{
		{"nope", "nest", 1, "pils", 1},
		{"uc1", "bogus", 1, "pils", 1},
		{"uc1", "nest", 9, "pils", 1},
		{"uc1", "nest", 1, "bogus", 1},
		{"uc1", "nest", 1, "pils", 9},
	}
	for _, tc := range bad {
		if _, err := buildScenario(tc.name, tc.sim, tc.simConf, tc.ana, tc.anaConf, false); err == nil {
			t.Errorf("buildScenario(%+v) should fail", tc)
		}
	}
}

func TestParsePolicies(t *testing.T) {
	for _, p := range []string{"serial", "drom", "oversubscribe", "preempt", "both", "all"} {
		got, err := parsePolicies(p)
		if err != nil || len(got) == 0 {
			t.Errorf("parsePolicies(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := parsePolicies("bogus"); err == nil {
		t.Error("bogus policy should fail")
	}
}

// TestTimelineFlagsChecked: a -width below 1 and an unknown -metric
// are errors that name the flag; every documented value passes.
func TestTimelineFlagsChecked(t *testing.T) {
	for _, m := range timelineMetrics {
		if err := checkTimeline(1, m); err != nil {
			t.Errorf("-width 1 -metric %s: %v", m, err)
		}
	}
	for _, bad := range []struct {
		width  int
		metric string
		want   string
	}{
		{-5, "util", "-width"},
		{0, "util", "-width"},
		{100, "foo", "-metric"},
		{100, "", "-metric"},
	} {
		if err := checkTimeline(bad.width, bad.metric); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("-width %d -metric %q: error %v, want one naming %s", bad.width, bad.metric, err, bad.want)
		}
	}
}

func TestRunDJSBSmoke(t *testing.T) {
	small := workload.Spec{Seeds: []int64{1}, Jobs: 6, MeanInterarrival: 200, Nodes: 2}
	if err := runDJSB(small, "both", obsArgs{}); err != nil {
		t.Fatal(err)
	}
	if err := runDJSB(small, "bogus", obsArgs{}); err == nil {
		t.Fatal("bogus policy should fail")
	}
}

// traceSpec builds the spec slurmsim's trace flags describe for args.
func traceSpec(t *testing.T, args ...string) (workload.Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("slurmsim", flag.ContinueOnError)
	workload.RegisterFlags(fs, workload.SlurmsimFlags, nil)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, err := workload.FlagSpec(fs, workload.SlurmsimFlags)
	if err == nil {
		err = s.Validate()
	}
	return s, err
}

// mustSpec parses and validates a spec.
func mustSpec(t *testing.T, text string) workload.Spec {
	t.Helper()
	s, err := workload.ParseSpec(text)
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParseSchedPolicies: a -sched value is a comma list of policies,
// one replay each ("all" is every policy), unless it holds '=' pairs:
// then it is ONE per-partition policy set.
func TestParseSchedPolicies(t *testing.T) {
	for _, in := range []string{"all", "fcfs", "easy,malleable", "malleable-shrink, malleable-expand"} {
		s, err := traceSpec(t, "-sched", in)
		if err != nil || len(s.Cells()) == 0 {
			t.Errorf("-sched %q = %v, %v", in, s.Cells(), err)
		}
	}
	if _, err := traceSpec(t, "-sched", "fcfs,bogus"); err == nil {
		t.Error("bogus sched policy should fail")
	}
	// A spec with '=' pairs is a single per-partition policy set.
	s, err := traceSpec(t, "-sched", "batch=easy,fat=shrink")
	if err != nil || len(s.Cells()) != 1 {
		t.Fatalf("-sched set = %v, %v", s.Cells(), err)
	}
	if ps, err := sched.ParsePolicySet(s.Policies[0]); err != nil || ps.String() != "batch=easy,fat=malleable-shrink" {
		t.Errorf("set = %q, %v, want canonical names", ps, err)
	}
	if _, err := traceSpec(t, "-sched", "batch=bogus"); err == nil {
		t.Error("bogus set policy should fail")
	}
	// No -sched on a trace file replays every policy.
	if s, err := traceSpec(t, "-swf", "t.swf"); err != nil || len(s.Cells()) != len(sched.Names()) {
		t.Errorf("-swf alone = %v, %v", s.Cells(), err)
	}
}

func TestRunSchedSmoke(t *testing.T) {
	if err := runSched(mustSpec(t, "policies=easy,malleable;seed=1;jobs=40;ia=30;nodes=2;check=1"), obsArgs{}); err != nil {
		t.Fatal(err)
	}
	if err := runSched(workload.Spec{Policies: []string{"bogus"}, Jobs: 10, Nodes: 2}, obsArgs{}); err == nil {
		t.Fatal("bogus policy should fail")
	}
	if err := runSched(mustSpec(t, "policies=fcfs;swf=/nonexistent.swf;nodes=2"), obsArgs{}); err == nil {
		t.Fatal("missing trace file should fail")
	}
	// -stream is the same per-policy loop over lazy sources: the
	// generator, and a trace file read once per policy.
	if err := runSched(mustSpec(t, "policies=easy,malleable;seed=1;jobs=40;ia=30;nodes=2;check=1;stream=1"), obsArgs{}); err != nil {
		t.Fatal(err)
	}
	swf := t.TempDir() + "/t.swf"
	trace := workload.FormatSWF(workload.SyntheticSWF{Seed: 1, Jobs: 40, Nodes: 2}.Generate())
	if err := os.WriteFile(swf, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		s := workload.Spec{Policies: []string{"fcfs", "easy"}, SWFPath: swf, Nodes: 2, Stream: stream}
		if err := runSched(s, obsArgs{}); err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
	}
	if err := runSched(mustSpec(t, "policies=fcfs;swf=/nonexistent.swf;nodes=2;stream=1"), obsArgs{}); err == nil {
		t.Fatal("missing trace file should fail when streamed too")
	}
}

func TestRunSchedHeteroFaultSmoke(t *testing.T) {
	for _, text := range []string{
		"policies=malleable;seed=2;jobs=60;ia=20;cluster=hetero;cancel=0.1;fail=0.1;check=1",
		"policies=fcfs;seed=2;jobs=60;ia=20;cluster=hetero;cancel=0.1;fail=0.1;stream=1",
	} {
		if err := runSched(mustSpec(t, text), obsArgs{}); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
}

func TestRunSchedObsSmoke(t *testing.T) {
	dir := t.TempDir()
	o := obsArgs{
		tracePath:  dir + "/trace.jsonl",
		explainJob: "j00005",
		sample:     600,
		sampleOut:  dir + "/ts.csv",
		hist:       true,
	}
	if err := runSched(mustSpec(t, "policies=fcfs;seed=1;jobs=40;ia=30;nodes=2"), o); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{o.tracePath, o.sampleOut} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Errorf("%s: probed replay wrote nothing", f)
		}
	}
	// The consumers are per-replay; multiple policies must be rejected
	// up front rather than mingling streams.
	err := runSched(mustSpec(t, "policies=easy,malleable;seed=1;jobs=40;ia=30;nodes=2"), o)
	if err == nil || !strings.Contains(err.Error(), "single policy") {
		t.Fatalf("multi-policy probed replay should fail, got %v", err)
	}
	if err := runSched(mustSpec(t, "policies=fcfs;seed=1;jobs=40;ia=30;nodes=2"), obsArgs{sample: 600}); err == nil {
		t.Fatal("-sample without -sample-out should fail")
	}
}

// TestPaperScenarioObsSmoke: the observability consumers attach to
// the paper's scenarios on the builtin controller path under the same
// one-replay rule as the -sched modes.
func TestPaperScenarioObsSmoke(t *testing.T) {
	o := obsArgs{explainJob: "nest", hist: true}
	for _, a := range []runArgs{
		{scenario: "uc2", policy: "preempt", obs: o},
		{scenario: "uc1", policy: "drom", simName: "nest", simConf: 1, anaName: "pils", anaConf: 2, obs: o},
		{scenario: "djsb", policy: "serial", spec: workload.Spec{Jobs: 6, MeanInterarrival: 200}, obs: obsArgs{hist: true}},
	} {
		if err := run(a); err != nil {
			t.Errorf("%s under %s: %v", a.scenario, a.policy, err)
		}
	}
	for _, policy := range []string{"both", "all"} {
		err := run(runArgs{scenario: "uc2", policy: policy, obs: o})
		if err == nil || !strings.Contains(err.Error(), "single policy; pick one with -policy") {
			t.Errorf("-policy %s with consumers should be rejected, got %v", policy, err)
		}
	}
}

func TestRunSchedSpilloverSmoke(t *testing.T) {
	for _, text := range []string{
		"sched=batch=easy,fat=malleable-shrink;seed=1;jobs=120;ia=20;cluster=hetero;spill=1;check=1",
		"policies=easy;seed=1;jobs=120;ia=20;cluster=hetero;spill=1;spillafter=30;spilldepth=2;stream=1",
	} {
		if err := runSched(mustSpec(t, text), obsArgs{}); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
}
