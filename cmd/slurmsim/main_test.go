package main

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestMain lets TestPaperModeGolden run this test binary as slurmsim
// itself: with runMainEnv set, the process is the command, its
// arguments its flags.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "SLURMSIM_TEST_RUN_MAIN"

// TestPaperModeGolden pins slurmsim's stdout in its paper modes, each
// invocation's after a "$ slurmsim <args>" line: UC1 and UC2 and the
// DJSB stream under the builtin controller policies, one traced.
// Regenerate (only after an intentional change of the paper model or
// the output format) with:
//
//	UPDATE_SLURMSIM_GOLDEN=1 go test ./cmd/slurmsim -run TestPaperModeGolden
func TestPaperModeGolden(t *testing.T) {
	var got strings.Builder
	for _, args := range []string{
		"",
		"-scenario uc1 -sim coreneuron -simconf 2 -ana stream -anaconf 1 -policy all",
		"-scenario uc2 -trace -metric cycles",
		"-scenario djsb -jobs 8 -seed 3 -policy all",
		"-scenario djsb",
	} {
		cmd := exec.Command(os.Args[0], strings.Fields(args)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("slurmsim %s: %v", args, err)
		}
		got.WriteString("$ slurmsim " + args + "\n" + string(out))
	}
	const golden = "testdata/paper.golden"
	if os.Getenv("UPDATE_SLURMSIM_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, err := os.ReadFile(golden); err != nil || got.String() != string(want) {
		t.Fatalf("paper-mode stdout diverged from %s (%v):\n--- got\n%s--- want\n%s", golden, err, got.String(), want)
	}
}

// paperSpec builds the spec the paper flags describe, as main does.
func paperSpec(scenario, policy, sim string, simConf int, ana string, anaConf int) (workload.Spec, error) {
	var s workload.Spec
	err := setPaperKeys(&s, scenario, policy, sim, simConf, ana, anaConf, false)
	if err == nil {
		err = s.Validate()
	}
	return s, err
}

// TestBuildScenario: the paper flags name a scenario that
// materializes; an unknown scenario, app or configuration is an error.
func TestBuildScenario(t *testing.T) {
	for _, scenario := range []string{"uc1", "uc2", "djsb"} {
		s, err := paperSpec(scenario, "both", "nest", 1, "pils", 2)
		if err == nil {
			_, err = s.Scenario()
		}
		if err != nil {
			t.Errorf("%s: %v", scenario, err)
		}
	}
	for _, bad := range []struct {
		scenario, sim string
		simConf       int
		ana           string
		anaConf       int
	}{{"nope", "nest", 1, "pils", 1}, {"uc1", "bogus", 1, "pils", 1}, {"uc1", "nest", 9, "pils", 1},
		{"uc1", "nest", 1, "bogus", 1}, {"uc1", "nest", 1, "pils", 9}, {"uc1", "pils", 1, "nest", 1}} {
		if _, err := paperSpec(bad.scenario, "both", bad.sim, bad.simConf, bad.ana, bad.anaConf); err == nil {
			t.Errorf("paper flags %+v should fail", bad)
		}
	}
}

// TestParsePolicies: -policy names one builtin controller policy, both
// (serial and DROM) or all four, one cell each; a sched policy is a
// trace's.
func TestParsePolicies(t *testing.T) {
	for p, cells := range map[string]int{"serial": 1, "drom": 1, "oversubscribe": 1, "preempt": 1, "both": 2, "all": 4} {
		s, err := paperSpec("uc2", p, "", 0, "", 0)
		if err != nil || len(s.Cells()) != cells {
			t.Errorf("-policy %s = %v, %v; want %d cells", p, s.Cells(), err, cells)
		}
	}
	for _, p := range []string{"bogus", "easy"} {
		if _, err := paperSpec("uc2", p, "", 0, "", 0); err == nil || !strings.Contains(err.Error(), p) {
			t.Errorf("-policy %s: error %v, want one naming it", p, err)
		}
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
	if err := runSpec(mustSpec(t, "scenario=djsb;policies=serial,drom;seeds=1;jobs=6;ia=200;nodes=2"), obsArgs{}); err != nil {
		t.Fatal(err)
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
	if err := runSpec(mustSpec(t, "policies=easy,malleable;seed=1;jobs=40;ia=30;nodes=2;check=1"), obsArgs{}); err != nil {
		t.Fatal(err)
	}
	if err := runSpec(workload.Spec{Policies: []string{"bogus"}, Jobs: 10, Nodes: 2}, obsArgs{}); err == nil {
		t.Fatal("bogus policy should fail")
	}
	if err := runSpec(mustSpec(t, "policies=fcfs;swf=/nonexistent.swf;nodes=2"), obsArgs{}); err == nil {
		t.Fatal("missing trace file should fail")
	}
	// -stream is the same per-policy loop over lazy sources: the
	// generator, and a trace file read once per policy.
	if err := runSpec(mustSpec(t, "policies=easy,malleable;seed=1;jobs=40;ia=30;nodes=2;check=1;stream=1"), obsArgs{}); err != nil {
		t.Fatal(err)
	}
	swf := t.TempDir() + "/t.swf"
	trace := workload.FormatSWF(workload.SyntheticSWF{Seed: 1, Jobs: 40, Nodes: 2}.Generate())
	if err := os.WriteFile(swf, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		s := workload.Spec{Policies: []string{"fcfs", "easy"}, SWFPath: swf, Nodes: 2, Stream: stream}
		if err := runSpec(s, obsArgs{}); err != nil {
			t.Fatalf("stream=%v: %v", stream, err)
		}
	}
	if err := runSpec(mustSpec(t, "policies=fcfs;swf=/nonexistent.swf;nodes=2;stream=1"), obsArgs{}); err == nil {
		t.Fatal("missing trace file should fail when streamed too")
	}
}

func TestRunSchedHeteroFaultSmoke(t *testing.T) {
	for _, text := range []string{
		"policies=malleable;seed=2;jobs=60;ia=20;cluster=hetero;cancel=0.1;fail=0.1;check=1",
		"policies=fcfs;seed=2;jobs=60;ia=20;cluster=hetero;cancel=0.1;fail=0.1;stream=1",
	} {
		if err := runSpec(mustSpec(t, text), obsArgs{}); err != nil {
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
	if err := runSpec(mustSpec(t, "policies=fcfs;seed=1;jobs=40;ia=30;nodes=2"), o); err != nil {
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
	err := runSpec(mustSpec(t, "policies=easy,malleable;seed=1;jobs=40;ia=30;nodes=2"), o)
	if err == nil || !strings.Contains(err.Error(), "single policy") {
		t.Fatalf("multi-policy probed replay should fail, got %v", err)
	}
	if err := runSpec(mustSpec(t, "policies=fcfs;seed=1;jobs=40;ia=30;nodes=2"), obsArgs{sample: 600}); err == nil {
		t.Fatal("-sample without -sample-out should fail")
	}
}

// TestPaperScenarioObsSmoke: the observability consumers attach to
// the paper's scenarios on the builtin controller path under the same
// one-replay rule as the -sched modes.
func TestPaperScenarioObsSmoke(t *testing.T) {
	o := obsArgs{explainJob: "nest", hist: true}
	for _, spec := range []string{"scenario=uc2;policies=preempt", "scenario=uc1;policies=drom;sim=nest1;ana=pils2",
		"scenario=djsb;policies=serial;jobs=6;ia=200"} {
		if err := runSpec(mustSpec(t, spec), o); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
	for _, policy := range []string{"both", "all"} {
		s, err := paperSpec("uc2", policy, "", 0, "", 0)
		if err == nil {
			err = runSpec(s, o)
		}
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
		if err := runSpec(mustSpec(t, text), obsArgs{}); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
}

// runSpec runs spec with the timeline defaults.
func runSpec(spec workload.Spec, o obsArgs) error { return run(spec, o, 100, "util") }
