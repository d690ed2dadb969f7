package main

import (
	"os"
	"strings"
	"testing"

	"repro/cluster"
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

func TestRunDJSBSmoke(t *testing.T) {
	if err := runDJSB(1, 6, 200, 2, "both", obsArgs{}); err != nil {
		t.Fatal(err)
	}
	if err := runDJSB(1, 6, 200, 2, "bogus", obsArgs{}); err == nil {
		t.Fatal("bogus policy should fail")
	}
}

func TestParseSchedPolicies(t *testing.T) {
	for _, in := range []string{"", "all", "fcfs", "easy,malleable", "malleable-shrink, malleable-expand"} {
		got, err := parseSchedPolicies(in)
		if err != nil || len(got) == 0 {
			t.Errorf("parseSchedPolicies(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseSchedPolicies("fcfs,bogus"); err == nil {
		t.Error("bogus sched policy should fail")
	}
	// A spec with '=' pairs is a single per-partition policy set.
	got, err := parseSchedPolicies("batch=easy,fat=shrink")
	if err != nil || len(got) != 1 {
		t.Fatalf("parseSchedPolicies(set) = %v, %v", got, err)
	}
	if got[0].String() != "batch=easy,fat=malleable-shrink" {
		t.Errorf("set = %q, want canonical names", got[0])
	}
	if _, err := parseSchedPolicies("batch=bogus"); err == nil {
		t.Error("bogus set policy should fail")
	}
}

func TestRunSchedSmoke(t *testing.T) {
	if err := runSched(schedArgs{
		names: "easy,malleable", seed: 1, jobs: 40, interarrival: 30, nodes: 2, check: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := runSched(schedArgs{names: "bogus", seed: 1, jobs: 10, nodes: 2}); err == nil {
		t.Fatal("bogus policy should fail")
	}
	if err := runSched(schedArgs{names: "fcfs", swfPath: "/nonexistent.swf", seed: 1, nodes: 2}); err == nil {
		t.Fatal("missing trace file should fail")
	}
	// -stream is the same per-policy loop over lazy sources: the
	// generator, and a trace file read once per policy.
	if err := runSched(schedArgs{
		names: "easy,malleable", seed: 1, jobs: 40, interarrival: 30, nodes: 2, check: true, stream: true,
	}); err != nil {
		t.Fatal(err)
	}
	swf := t.TempDir() + "/t.swf"
	trace := workload.FormatSWF(workload.SyntheticSWF{Seed: 1, Jobs: 40, Nodes: 2}.Generate())
	if err := os.WriteFile(swf, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		if err := runSched(schedArgs{names: "fcfs,easy", swfPath: swf, nodes: 2, stream: stream}); err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
	}
	if err := runSched(schedArgs{names: "fcfs", swfPath: "/nonexistent.swf", nodes: 2, stream: true}); err == nil {
		t.Fatal("missing trace file should fail when streamed too")
	}
}

func TestRunSchedHeteroFaultSmoke(t *testing.T) {
	cs, err := cluster.ParseCluster("hetero")
	if err != nil {
		t.Fatal(err)
	}
	if err := runSched(schedArgs{
		names: "malleable", seed: 2, jobs: 60, interarrival: 20,
		cluster: cs, cancel: 0.1, fail: 0.1, check: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := runSched(schedArgs{
		stream: true,
		names:  "fcfs", seed: 2, jobs: 60, interarrival: 20,
		cluster: cs, cancel: 0.1, fail: 0.1,
	}); err != nil {
		t.Fatal(err)
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
	if err := runSched(schedArgs{
		names: "fcfs", seed: 1, jobs: 40, interarrival: 30, nodes: 2, obs: o,
	}); err != nil {
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
	err := runSched(schedArgs{
		names: "easy,malleable", seed: 1, jobs: 40, interarrival: 30, nodes: 2, obs: o,
	})
	if err == nil || !strings.Contains(err.Error(), "single policy") {
		t.Fatalf("multi-policy probed replay should fail, got %v", err)
	}
	if err := runSched(schedArgs{
		names: "fcfs", seed: 1, jobs: 40, interarrival: 30, nodes: 2,
		obs: obsArgs{sample: 600},
	}); err == nil {
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
		{scenario: "djsb", policy: "serial", seed: 1, jobs: 6, interarrival: 200, nodes: 2, obs: obsArgs{hist: true}},
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
	cs, err := cluster.ParseCluster("hetero")
	if err != nil {
		t.Fatal(err)
	}
	if err := runSched(schedArgs{
		names: "batch=easy,fat=malleable-shrink", seed: 1, jobs: 120, interarrival: 20,
		cluster: cs, spill: true, check: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := runSched(schedArgs{
		stream: true,
		names:  "easy", seed: 1, jobs: 120, interarrival: 20,
		cluster: cs, spill: true, spillAfter: 30, spillDepth: 2,
	}); err != nil {
		t.Fatal(err)
	}
}
