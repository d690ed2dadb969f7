package workload

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slurm"
)

// TestSchedReplayDecisionGoldenWithProbes replays the golden trace
// with EVERY observability consumer attached and asserts the start
// times still match the committed golden byte for byte: the probes
// observe decisions, they must never make them.
func TestSchedReplayDecisionGoldenWithProbes(t *testing.T) {
	sc, err := SyntheticSWFScenario(SyntheticSWF{Seed: 1, Jobs: 1000, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	sc.DebugInvariants = true
	var got strings.Builder
	for _, name := range sched.Names() {
		// Fresh consumers per policy: each replay is its own stream.
		hist := &obs.CycleHist{}
		explain := obs.NewExplain("j00042")
		trace := obs.NewSchedTrace(io.Discard)
		sampler := obs.NewSampler(600, io.Discard, false)
		protocol := &obs.Protocol{}
		sc.Probe = obs.Multi(trace, explain, sampler, hist, protocol)
		got.WriteString(replayStarts(t, sc, name))
		if err := trace.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := sampler.Flush(); err != nil {
			t.Fatal(err)
		}
		if hist.Cycle.Count() == 0 || hist.Sched.Count() == 0 {
			t.Fatalf("%s: histograms saw no cycles", name)
		}
		if len(protocol.Lines) < 2*len(sc.Subs) {
			t.Fatalf("%s: protocol log has %d lines for %d jobs", name, len(protocol.Lines), len(sc.Subs))
		}
	}
	sc.Probe = nil
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatal("probed replay start times diverged from the golden: probes perturbed decisions")
	}
}

// TestSchedReplaySpilloverGoldenWithProbes replays the spillover
// golden's mixed-policy cell fully probed: the spill probe points sit
// inside the spillover pass itself (shadow-time verdicts, re-route
// starts), so this is where a perturbing emission would surface. The
// per-job lifecycle (including origin) must match the committed
// golden's lines for that cell exactly.
func TestSchedReplaySpilloverGoldenWithProbes(t *testing.T) {
	const spec = "batch=easy,fat=malleable-shrink"
	sc := heteroFaultScenario(t)
	sc.Spill = true
	trace := obs.NewSchedTrace(io.Discard)
	sampler := obs.NewSampler(600, io.Discard, true)
	hist := &obs.CycleHist{}
	protocol := &obs.Protocol{}
	sc.Probe = obs.Multi(trace, sampler, hist, protocol)
	ps, err := sched.ParsePolicySet(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := RunSchedSet(sc, ps)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := trace.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sampler.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(protocol.Lines, "\n"), " spillover ") {
		t.Fatal("the protocol log lists no committed spill")
	}
	var got strings.Builder
	rs := append(res.Records.Jobs[:0:0], res.Records.Jobs...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
	for _, j := range rs {
		origin := j.Origin
		if origin == "" {
			origin = "-"
		}
		fmt.Fprintf(&got, "%s %s %s %s %s %s %s %s\n", spec, j.Name,
			strconv.FormatFloat(j.Submit, 'g', -1, 64),
			strconv.FormatFloat(j.Start, 'g', -1, 64),
			strconv.FormatFloat(j.End, 'g', -1, 64),
			j.Outcome, j.Partition, origin)
	}
	want, err := os.ReadFile(spillGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(want), got.String()) {
		t.Fatal("probed spillover replay diverged from the committed golden cell")
	}
}

// TestExplainGoldenJobStory replays the golden trace under fcfs with
// the explainer following one mid-trace job and checks the full
// submit → wait → start → end story comes out.
func TestExplainGoldenJobStory(t *testing.T) {
	sc, err := SyntheticSWFScenario(SyntheticSWF{Seed: 1, Jobs: 1000, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	explain := obs.NewExplain("j00042")
	sc.Probe = explain
	if res := RunSchedSet(sc, sched.PolicySet{Default: "fcfs"}); res.Err != nil {
		t.Fatal(res.Err)
	}
	story := explain.Story()
	for _, want := range []string{
		"job j00042:",
		"submitted to partition",
		"enters the queue at position",
		"queue position",
		"started on",
		"after waiting",
		"completed after running",
		"response time",
	} {
		if !strings.Contains(story, want) {
			t.Errorf("story missing %q:\n%s", want, story)
		}
	}
	if strings.Contains(story, "still") {
		t.Errorf("the job finishes inside the trace; no pending footer expected:\n%s", story)
	}
}

// TestDisabledProbeReplayAllocs pins the steady-state allocation cost
// of a replay with NO probe installed, for both kinds of source the one
// driver takes. Per cycle: the observability layer's disabled path
// must stay one nil check, not allocations — the bound is loose enough
// for cross-machine noise but far below what building obs.Events on
// the hot path would cost (each emission site would add several
// allocs/cycle if unguarded). Per submission: the whole replay's count
// over the trace length, held within 0.6 of an allocation of its
// level, so a closure, method value or boxed record per submission in
// the driver's pump — or a job record, an instance or a closure per
// launch that the controller's free lists should have supplied — shows.
// Half the jobs carry an scancel, so a closure per scancel timer shows
// too, and so does a Job the session does not take from its slab or a
// name the trace mapping does not slice out of its chunk (lazy row).
// What is left is the controller's waiting-job records growing to the
// backlog's peak (about 0.12 per submission on this trace), the job
// slabs (one allocation per 256 jobs), the name chunks (one per 512
// records; the slice row maps before it counts) and, on the slice row,
// the records growing; the lazy row's records are folded, not kept.
func TestDisabledProbeReplayAllocs(t *testing.T) {
	gen := SyntheticSWF{Seed: 1, Jobs: 3000, Nodes: 4, CancelRate: 0.5}
	sc, err := SyntheticSWFScenario(gen)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name      string
		run       func() Result
		maxPerSub float64
	}{
		{"slice", func() Result { return RunSchedSet(sc, sched.PolicySet{Default: "fcfs"}) }, 0.84}, // level 0.24
		{"lazy", func() Result {
			return RunSchedStream(Scenario{Nodes: gen.Nodes}, gen.Source(), &sched.FCFS{})
		}, 0.85}, // level 0.25
	}
	for _, row := range rows {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res := row.run()
		runtime.ReadMemStats(&m1)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		mallocs := float64(m1.Mallocs - m0.Mallocs)
		if perCycle := mallocs / float64(res.SchedCycles); perCycle > 30 {
			t.Errorf("%s: disabled-probe replay allocates %.1f/cycle, want <= 30 (seed level ~13)", row.name, perCycle)
		}
		if perSub := mallocs / float64(gen.Jobs); perSub > row.maxPerSub {
			t.Errorf("%s: replay allocates %.2f/submission, want <= %.2f", row.name, perSub, row.maxPerSub)
		}
	}
}

// cycleCounter checks the cycle-skeleton contract from outside: every
// KindCycleStart is closed by a KindCycleEnd before the next opens, and
// every job start happens inside one.
type cycleCounter struct {
	open           bool
	cycles, starts int
	policyPasses   int
	snapshots      int
	violations     []string
}

func (c *cycleCounter) Emit(ev obs.Event) {
	switch ev.Kind {
	case obs.KindCycleStart:
		if c.open {
			c.violations = append(c.violations, fmt.Sprintf("t=%g: cycle opened inside a cycle", ev.Time))
		}
		c.open = true
	case obs.KindCycleEnd:
		if !c.open {
			c.violations = append(c.violations, fmt.Sprintf("t=%g: cycle end without a start", ev.Time))
		}
		c.open = false
		c.cycles++
	case obs.KindPass:
		c.policyPasses++
	case obs.KindSnapshot:
		if !c.open {
			c.violations = append(c.violations, fmt.Sprintf("t=%g: snapshot outside a cycle", ev.Time))
		}
		c.snapshots++
	case obs.KindJobStart:
		if !c.open {
			c.violations = append(c.violations, fmt.Sprintf("t=%g: job %s started outside a cycle", ev.Time, ev.Job))
		}
		c.starts++
	}
}

// TestBuiltinRunsRideTheProbedCycleSkeleton: the paper's policies go
// through the same kick → cycle skeleton as sched policies, so a probed
// builtin run reports matched cycle start/end pairs around every
// launch — and, probes being observers, the records of the unprobed
// run. SchedCycles keeps counting policy passes only: a builtin cycle
// reports its partition as a KindSnapshot instead, which is what gives
// -sample a series on the paper's own runs.
func TestBuiltinRunsRideTheProbedCycleSkeleton(t *testing.T) {
	for _, policy := range []slurm.Policy{slurm.PolicySerial, slurm.PolicyDROM, slurm.PolicyOversubscribe, slurm.PolicyPreempt} {
		sc := UC2(false)
		plain := Run(sc, policy)
		if plain.Err != nil {
			t.Fatal(plain.Err)
		}
		cc := &cycleCounter{}
		var csv bytes.Buffer
		sampler := obs.NewSampler(600, &csv, false)
		sc.Probe = obs.Multi(cc, sampler)
		probed := Run(sc, policy)
		if probed.Err != nil {
			t.Fatal(probed.Err)
		}
		if err := sampler.Flush(); err != nil {
			t.Fatal(err)
		}
		if cc.open || len(cc.violations) > 0 {
			t.Errorf("%s: unmatched cycle events (open at exit: %v): %v", policy, cc.open, cc.violations)
		}
		// Two submissions and two job ends trigger at least four cycles;
		// both jobs start (the preempted one twice).
		if cc.cycles < 4 || cc.starts < 2 {
			t.Errorf("%s: saw %d cycles and %d starts", policy, cc.cycles, cc.starts)
		}
		if cc.policyPasses != 0 || probed.SchedCycles != 0 {
			t.Errorf("%s: builtin run reported %d policy passes, SchedCycles=%d; want 0", policy, cc.policyPasses, probed.SchedCycles)
		}
		if cc.snapshots != cc.cycles {
			t.Errorf("%s: %d snapshots for %d cycles of a one-partition cluster", policy, cc.snapshots, cc.cycles)
		}
		if rows := strings.Count(csv.String(), "\n") - 1; rows < 5 {
			t.Errorf("%s: -sample 600s wrote %d data rows, want >= 5:\n%s", policy, rows, csv.String())
		}
		// Under DROM both jobs share the nodes from t=1200 to t=2212.6
		// and the cluster is never idle before nest ends at t=3340.4.
		const dromSeries = "t,partition,util,queue_depth,running,spilled_in,spilled_out\n" +
			"600,batch,1,0,1,0,0\n1200,batch,1,0,1,0,0\n1800,batch,1,0,2,0,0\n" +
			"2400,batch,1,0,1,0,0\n3000,batch,1,0,1,0,0\n3600,batch,0,0,0,0,0\n"
		if policy == slurm.PolicyDROM && csv.String() != dromSeries {
			t.Errorf("drom: sampled series\n%swant\n%s", csv.String(), dromSeries)
		}
		if !reflect.DeepEqual(probed.Records.Jobs, plain.Records.Jobs) {
			t.Errorf("%s: probed records diverged:\n%s\nwant\n%s", policy, probed.Records.String(), plain.Records.String())
		}
		if probed.Events != plain.Events {
			t.Errorf("%s: probed run processed %d events, unprobed %d", policy, probed.Events, plain.Events)
		}
	}
}

// TestExplainNarratesCheckpointRestart: the preempt baseline's story
// reaches -explain — the preemption event names the job under the NEW
// sequence it is requeued with, and the resumption is its second start.
func TestExplainNarratesCheckpointRestart(t *testing.T) {
	sc := UC2(false)
	explain := obs.NewExplain("nest")
	sc.Probe = explain
	if res := Run(sc, slurm.PolicyPreempt); res.Err != nil {
		t.Fatal(res.Err)
	}
	story := explain.Story()
	if n := strings.Count(story, "preempted (checkpointed) and requeued"); n != 1 {
		t.Errorf("story mentions the preemption %d times, want 1:\n%s", n, story)
	}
	if n := strings.Count(story, "started on node0,node1"); n != 2 {
		t.Errorf("story has %d starts, want launch + resumption:\n%s", n, story)
	}
}

// TestExplainUC2ProtocolGolden pins the two -explain stories of the
// paper's high-priority use case under DROM: each narrates Figure 2 from
// its side — coreneuron's DROM_PreInit stealing half of nest's CPUs at
// t=1200 and the DROM_PostFinalize that returns them at t=2212.6.
// Regenerate (only after an intentional change of the wording) with:
//
//	UPDATE_EXPLAIN_GOLDEN=1 go test ./internal/workload -run TestExplainUC2ProtocolGolden
func TestExplainUC2ProtocolGolden(t *testing.T) {
	for _, job := range []string{"nest", "coreneuron"} {
		sc := UC2(false)
		explain := obs.NewExplain(job)
		sc.Probe = explain
		if res := Run(sc, slurm.PolicyDROM); res.Err != nil {
			t.Fatal(res.Err)
		}
		got := explain.Story()
		for _, call := range []string{"DROM_PreInit", "DROM_PostFinalize"} {
			if !strings.Contains(got, call) {
				t.Errorf("%s: story does not mention %s:\n%s", job, call, got)
			}
		}
		path := "testdata/explain_uc2_drom_" + job + ".golden"
		if os.Getenv("UPDATE_EXPLAIN_GOLDEN") != "" {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s", path)
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: story diverged from %s:\n--- got\n%s--- want\n%s", job, path, got, want)
		}
	}
}
