package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/cpuset"
)

func TestKindActReasonStrings(t *testing.T) {
	if KindPass.String() != "pass" || KindCell.String() != "cell" {
		t.Fatalf("kind names wrong: %s %s", KindPass, KindCell)
	}
	if ActSpill.String() != "spill" || ActNone.String() != "none" {
		t.Fatalf("act names wrong: %s %s", ActSpill, ActNone)
	}
	if ReasonBlockedByReservation.String() != "blocked-by-reservation" {
		t.Fatalf("reason name wrong: %s", ReasonBlockedByReservation)
	}
	if Kind(99).String() == "" || Act(99).String() == "" || Reason(99).String() == "" || Step(99).String() == "" {
		t.Fatal("out-of-range enums must still render")
	}
	// The four steps of the paper's Figure 2 keep the protocol log's names.
	for step, want := range map[Step]string{
		StepLaunchRequest: "launch_request", StepPreLaunch: "pre_launch",
		StepPostTerm: "post_term", StepReleaseResources: "release_resources",
	} {
		if step.String() != want {
			t.Errorf("Step(%d).String() = %q, want %q", step, step, want)
		}
	}
	seen := map[string]bool{}
	for s := StepNone; int(s) < len(stepNames); s++ {
		if name := s.String(); name == "" || seen[name] {
			t.Errorf("Step(%d) has an empty or duplicate name %q", s, name)
		}
		seen[s.String()] = true
	}
}

// TestKindNamesSync: every declared Kind — including ones added after
// the table was first written — has a distinct non-empty name. Catches
// the classic "new enum value, stale name table" drift.
func TestKindNamesSync(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); int(k) < len(kindNames); k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Errorf("Kind(%d) has no name", int(k))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("Kind(%d) and Kind(%d) share the name %q", int(k), int(prev), name)
		}
		seen[name] = k
	}
	for kind, want := range map[Kind]string{
		KindNodeDown: "node-down", KindNodeUp: "node-up", KindRequeue: "requeue",
	} {
		if kind.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(kind), kind.String(), want)
		}
	}
}

// tally counts the events it sees by kind.
type tally map[Kind]int

func (c *tally) Emit(ev Event) { (*c)[ev.Kind]++ }

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no probes must be nil")
	}
	c, c2 := tally{}, tally{}
	if p := Multi(nil, &c, nil); p != Probe(&c) {
		t.Fatal("Multi of one live probe must return it directly")
	}
	m := Multi(&c, &c2)
	m.Emit(Event{Kind: KindPass})
	m.Emit(Event{Kind: KindPass})
	m.Emit(Event{Kind: KindAction})
	if c[KindPass] != 2 || c2[KindPass] != 2 || c[KindAction] != 1 {
		t.Fatalf("fan-out miscounted: %v %v", c, c2)
	}
	var got Kind
	Func(func(ev Event) { got = ev.Kind }).Emit(Event{Kind: KindCell})
	if got != KindCell {
		t.Fatalf("Func adapter delivered %v", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.String() == "" {
		t.Fatal("empty histogram accessors must be safe")
	}
	for _, v := range []int64{1, 2, 3, 100, 1000, -5, 0} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.max != 1000 {
		t.Fatalf("max = %d", h.max)
	}
	if h.sum != 1106 { // negatives clamp to 0
		t.Fatalf("sum = %d", h.sum)
	}
	// Quantiles report a log-bucket upper edge, clamped by max: the
	// true median is 3, and the bucket resolution guarantees the
	// reported bound is within 2x of a neighbouring observation.
	if q := h.Quantile(0.5); q < 1 || q > 7 {
		t.Fatalf("p50 = %d, want a bucket edge near the median 3", q)
	}
	if q := h.Quantile(1.0); q != 1000 {
		t.Fatalf("p100 = %d, want clamped to max 1000", q)
	}
	// The overflow guard: huge observations stay positive.
	var big Histogram
	big.Observe(1 << 62)
	if q := big.Quantile(0.99); q != 1<<62 {
		t.Fatalf("overflow bucket quantile = %d", q)
	}
}

func TestHistogramZeroAlloc(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Observe allocates %.1f/op", n)
	}
	var ch CycleHist
	ev := Event{Kind: KindCycleEnd, WallNanos: 4096}
	if n := testing.AllocsPerRun(1000, func() { ch.Emit(ev) }); n != 0 {
		t.Fatalf("CycleHist.Emit allocates %.1f/op", n)
	}
}

func TestCycleHistReport(t *testing.T) {
	var ch CycleHist
	ch.Emit(Event{Kind: KindCycleEnd, WallNanos: 1000})
	ch.Emit(Event{Kind: KindPass, WallNanos: 300})
	var buf bytes.Buffer
	ch.Report(&buf)
	out := buf.String()
	if !strings.Contains(out, "sched cycle wall") || !strings.Contains(out, "Schedule() wall") {
		t.Fatalf("report missing sections:\n%s", out)
	}
	if ch.Cycle.Count() != 1 || ch.Sched.Count() != 1 {
		t.Fatalf("counts: cycle=%d sched=%d", ch.Cycle.Count(), ch.Sched.Count())
	}
}

// traceScript is a small synthetic decision stream: a busy pass with
// two actions, a quiet pass, and a spillover verdict.
func traceScript(p Probe) {
	p.Emit(Event{Kind: KindCycleStart, Time: 10})
	p.Emit(Event{Kind: KindPass, Time: 10, Partition: "batch", Queue: 2, Running: 1, Free: 16, Cores: 64})
	p.Emit(Event{Kind: KindAction, Act: ActStart, Reason: ReasonStarted, Time: 10,
		Partition: "batch", Job: "j00001", Seq: 1, Target: 4, Nodes: 2})
	p.Emit(Event{Kind: KindAction, Act: ActStart, Reason: ReasonSkipped, Time: 10,
		Partition: "batch", Job: "j00002", Seq: 2})
	p.Emit(Event{Kind: KindPass, Time: 10, Partition: "fat", Queue: 0, Running: 0, Free: 32, Cores: 32})
	p.Emit(Event{Kind: KindAction, Act: ActSpill, Reason: ReasonBlockedByReservation, Time: 10,
		Partition: "fat", Origin: "batch", Job: "j00003", Seq: 3, Shadow: 99.5})
	p.Emit(Event{Kind: KindCycleEnd, Time: 10})
}

func TestSchedTraceJSONAndDeterminism(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		tr := NewSchedTrace(&buf)
		traceScript(tr)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := render()
	if out != render() {
		t.Fatal("trace output not deterministic across identical runs")
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want busy pass + spill (quiet pass dropped):\n%s", len(lines), out)
	}
	// Every line must be a valid JSON object.
	type action struct {
		Job, Act, Reason, Origin string
		Target, Nodes            int
		Shadow                   float64
	}
	var first struct {
		T                           float64
		Partition, Pass             string
		Queue, Running, Free, Cores int
		Actions                     []action
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not JSON: %v\n%s", err, lines[0])
	}
	if first.Partition != "batch" || first.Queue != 2 || len(first.Actions) != 2 {
		t.Fatalf("pass line wrong: %+v", first)
	}
	if first.Actions[0].Reason != "started" || first.Actions[1].Reason != "skipped" {
		t.Fatalf("action reasons wrong: %+v", first.Actions)
	}
	var spill struct {
		Pass    string
		Actions []action
	}
	if err := json.Unmarshal([]byte(lines[1]), &spill); err != nil {
		t.Fatalf("line 2 is not JSON: %v\n%s", err, lines[1])
	}
	if spill.Pass != "spillover" || len(spill.Actions) != 1 ||
		spill.Actions[0].Reason != "blocked-by-reservation" || spill.Actions[0].Shadow != 99.5 {
		t.Fatalf("spill line wrong: %+v", spill)
	}
}

func TestExplainStory(t *testing.T) {
	e := NewExplain("j2")
	if !strings.Contains(e.Story(), "never submitted") {
		t.Fatalf("unknown job story: %s", e.Story())
	}
	// j1 ahead of j2 in the queue; j2 waits one pass, then starts.
	e.Emit(Event{Kind: KindSubmit, Time: 0, Job: "j1", Seq: 1, Partition: "batch", Nodes: 1, CPUs: 4})
	e.Emit(Event{Kind: KindSubmit, Time: 1, Job: "j2", Seq: 2, Partition: "batch", Nodes: 2, CPUs: 8})
	e.Emit(Event{Kind: KindPass, Time: 1, Partition: "batch", Queue: 2, Free: 0, Cores: 64})
	e.Emit(Event{Kind: KindJobStart, Time: 5, Job: "j1", Seq: 1})
	e.Emit(Event{Kind: KindPass, Time: 5, Partition: "batch", Queue: 1, Free: 32, Cores: 64})
	e.Emit(Event{Kind: KindJobStart, Time: 6, Job: "j2", Seq: 2, Partition: "batch", CPUs: 8, Placement: "node0,node1"})
	e.Emit(Event{Kind: KindJobEnd, Time: 16, Job: "j2", Seq: 2, Outcome: "completed"})
	story := e.Story()
	for _, want := range []string{
		"submitted to partition \"batch\"",
		"position 2 of 2",
		"position 1 of 1",
		"started on node0,node1",
		"after waiting 5.0s",
		"completed after running 10.0s",
		"response time 15.0s",
	} {
		if !strings.Contains(story, want) {
			t.Errorf("story missing %q:\n%s", want, story)
		}
	}
	if strings.Contains(story, "still") {
		t.Errorf("finished job must have no pending footer:\n%s", story)
	}
}

// TestExplainInfersStealFromMasks: the protocol events name only the
// acting task, so the explainer works out from node and mask which of
// its job's tasks a foreign DROM_PreInit shrinks — CPU numbers repeat on
// every node — and undoes exactly that at the thief's post_term.
func TestExplainInfersStealFromMasks(t *testing.T) {
	e := NewExplain("victim")
	all, upper := cpuset.Range(0, 15), cpuset.Range(8, 15)
	for _, ev := range []Event{
		{Kind: KindSubmit, Job: "victim", Seq: 1, Partition: "batch", Nodes: 2, CPUs: 16},
		// Before its start nothing is the job's business.
		{Kind: KindProtocol, Step: StepPreLaunch, Placement: "node0", Job: "other", PID: 9, Mask: all},
		{Kind: KindJobStart, Job: "victim", Seq: 1, Partition: "batch", CPUs: 16, Placement: "node0,node1"},
		{Kind: KindProtocol, Step: StepLaunchRequest, Placement: "node0", Job: "victim", Target: 1},
		{Kind: KindProtocol, Step: StepPreLaunch, Placement: "node0", Job: "victim", PID: 1, Mask: all},
		{Kind: KindProtocol, Step: StepPreLaunch, Placement: "node1", Job: "victim", PID: 2, Mask: all},
		{Kind: KindProtocol, Step: StepPreLaunch, Time: 50, Placement: "node1", Job: "thief", PID: 3, Mask: upper},
		{Kind: KindProtocol, Step: StepSchedShrink, Time: 60, Placement: "node0", Job: "victim", PID: 1, Mask: cpuset.Range(0, 3)},
		{Kind: KindProtocol, Step: StepPostTerm, Time: 90, Placement: "node1", Job: "thief", PID: 3},
		{Kind: KindProtocol, Step: StepPostTerm, Time: 95, Placement: "node1", Job: "thief", PID: 3},
		{Kind: KindProtocol, Step: StepReleaseResources, Time: 99, Placement: "node0", PID: 1, Mask: all},
		{Kind: KindProtocol, Step: StepPostTerm, Time: 100, Placement: "node0", Job: "victim", PID: 1},
		{Kind: KindJobEnd, Time: 100, Job: "victim", Seq: 1, Outcome: "completed"},
	} {
		e.Emit(ev)
	}
	story := e.Story()
	for _, want := range []string{
		"node0 launch_request: 1 new task(s), 0 victim shrink(s) planned",
		"node0 pre_launch: DROM_PreInit(pid=1, mask=0-15, STEAL) reserves 16 CPU(s)",
		"node1: job thief's DROM_PreInit(pid=3, mask=8-15, STEAL) takes 8 CPU(s) from pid 2, leaving it 8",
		"node1: job thief's DROM_PostFinalize(pid=3, RETURN_STOLEN) returns 8 CPU(s) to pid 2, now 16",
		"node0 release_resources: DROM_SetProcessMask(pid=1, mask=0-15) expands it to 16 CPU(s)",
		"node0 post_term: DROM_PostFinalize(pid=1, RETURN_STOLEN)",
	} {
		if strings.Count(story, want) != 1 {
			t.Errorf("story has %d of %q, want 1:\n%s", strings.Count(story, want), want, story)
		}
	}
	for _, not := range []string{"pid=9", "from pid 1", "sched_shrink"} {
		if strings.Contains(story, not) {
			t.Errorf("story must not mention %q:\n%s", not, story)
		}
	}
}

// TestProtocolLines: the log renders protocol steps from their operands
// and lists the preemptions, spills, node state changes, requeues and
// abnormal job ends other probe points report; everything else is not
// its business.
func TestProtocolLines(t *testing.T) {
	var p Protocol
	for _, ev := range []Event{
		{Kind: KindSubmit, Job: "j1"},
		{Kind: KindProtocol, Step: StepLaunchRequest, Time: 50, Placement: "node0", Job: "j2", Target: 2, Running: 1},
		{Kind: KindProtocol, Step: StepPreLaunch, Time: 50, Placement: "node0", Job: "j2", PID: 1003, Mask: cpuset.Range(8, 11)},
		{Kind: KindProtocol, Step: StepPostTerm, Time: 151.46, Placement: "node1", Job: "j2", PID: 1005},
		{Kind: KindProtocol, Step: StepReleaseResources, Time: 152, Placement: "node1", PID: 1002, Mask: cpuset.Range(0, 15)},
		{Kind: KindJobEnd, Time: 165, Job: "j2", Outcome: "completed"},
		{Kind: KindJobEnd, Time: 170, Job: "j3", Outcome: "failed"},
		{Kind: KindAction, Act: ActStart, Reason: ReasonStarted, Job: "j4"},
		{Kind: KindAction, Act: ActPreempt, Reason: ReasonStarted, Time: 200, Job: "j1"},
		{Kind: KindAction, Act: ActSpill, Reason: ReasonBlockedByReservation, Job: "j5", Partition: "fat", Origin: "batch"},
		{Kind: KindAction, Act: ActSpill, Reason: ReasonSpilled, Time: 210, Job: "j5", Partition: "fat", Origin: "batch"},
		{Kind: KindNodeDown, Time: 300, Placement: "node2", Outcome: "drain"},
		{Kind: KindNodeDown, Time: 310, Placement: "node3", Outcome: "down"},
		{Kind: KindRequeue, Time: 310, Placement: "node3", Job: "j6", Target: 2},
		{Kind: KindNodeUp, Time: 400, Placement: "node2", Outcome: "drain-end"},
		{Kind: KindNodeUp, Time: 410, Placement: "node3", Outcome: "up"},
	} {
		p.Emit(ev)
	}
	want := []string{
		"t=    50.0s node0  launch_request    job j2: 2 new task(s), 1 victim shrink(s) planned",
		"t=    50.0s node0  pre_launch        DROM_PreInit(pid=1003, mask=8-11, STEAL)",
		"t=   151.5s node1  post_term         DROM_PostFinalize(pid=1005, RETURN_STOLEN)",
		"t=   152.0s node1  release_resources DROM_SetProcessMask(pid=1002, mask=0-15) [expand]",
		"t=   170.0s        job_end           job j3 failed",
		"t=   200.0s        preempt           job j1 checkpointed",
		"t=   210.0s        spillover         job j5 re-routed batch -> fat",
		"t=   300.0s node2  node_drain        node draining",
		"t=   310.0s node3  node_down         node failed",
		"t=   310.0s node3  requeue           job j6 requeued (attempt 2)",
		"t=   400.0s node2  node_drain_end    node back in service",
		"t=   410.0s node3  node_up           node repaired",
	}
	if got := strings.Join(p.Lines, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("protocol log:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

func TestExplainStillQueuedFooter(t *testing.T) {
	e := NewExplain("j9")
	e.Emit(Event{Kind: KindSubmit, Time: 0, Job: "j9", Seq: 9, Partition: "batch", Nodes: 1, CPUs: 1})
	e.Emit(Event{Kind: KindPass, Time: 3, Partition: "batch", Queue: 1, Free: 0, Cores: 64})
	if s := e.Story(); !strings.Contains(s, "still queued") {
		t.Fatalf("want still-queued footer:\n%s", s)
	}
}

func TestSamplerCSVAndJSON(t *testing.T) {
	run := func(jsonFmt bool) string {
		var buf bytes.Buffer
		s := NewSampler(10, &buf, jsonFmt)
		s.Emit(Event{Kind: KindPass, Time: 1, Partition: "batch", Queue: 3, Running: 2, Free: 16, Cores: 64})
		s.Emit(Event{Kind: KindAction, Act: ActSpill, Reason: ReasonSpilled, Time: 2, Partition: "fat", Origin: "batch"})
		// A builtin cycle's snapshot is read like a policy pass.
		s.Emit(Event{Kind: KindSnapshot, Time: 12, Partition: "batch", Queue: 1, Running: 4, Free: 0, Cores: 64})
		s.Emit(Event{Kind: KindEngine, Time: 25}) // heartbeat crosses t=20
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	csv := run(false)
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if lines[0] != "t,partition,util,queue_depth,running,spilled_in,spilled_out" {
		t.Fatalf("csv header wrong: %q", lines[0])
	}
	// t=10 samples the t=1 pass state (util 48/64), t=20 the t=12 state,
	// plus one final boundary row from Flush. The fat partition only
	// appears after its spill at t=2, so t=10 has batch alone... the
	// spill registered fat before the t=10 boundary, so rows come in
	// first-seen order: batch then fat.
	if want := "10,batch,0.75,3,2,0,1"; lines[1] != want {
		t.Fatalf("row 1 = %q, want %q", lines[1], want)
	}
	found := false
	for _, l := range lines {
		if l == "20,batch,1,1,4,0,1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("t=20 batch row missing:\n%s", csv)
	}
	jsonOut := run(true)
	for _, l := range strings.Split(strings.TrimSuffix(jsonOut, "\n"), "\n") {
		var row struct {
			T          float64
			Partition  string
			Util       float64
			QueueDepth int `json:"queue_depth"`
			SpilledIn  int `json:"spilled_in"`
			SpilledOut int `json:"spilled_out"`
		}
		if err := json.Unmarshal([]byte(l), &row); err != nil {
			t.Fatalf("bad JSONL row %q: %v", l, err)
		}
		if row.Partition == "fat" && row.SpilledIn != 1 {
			t.Fatalf("fat spilled_in = %d, want 1: %s", row.SpilledIn, l)
		}
	}
	if run(false) != csv {
		t.Fatal("sampler output not deterministic")
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf)
	tick := time.Unix(0, 0)
	p.now = func() time.Time { tick = tick.Add(2 * time.Second); return tick }
	p.Emit(Event{Kind: KindPass}) // ignored
	p.Emit(Event{Kind: KindCell, Cell: 1, Cells: 4})
	p.Emit(Event{Kind: KindCell, Cell: 4, Cells: 4})
	out := buf.String()
	if !strings.Contains(out, "1/4 cells") || !strings.Contains(out, "4/4 cells") {
		t.Fatalf("progress lines missing:\n%q", out)
	}
	if !strings.Contains(out, "ETA") || !strings.HasSuffix(out, "\n") {
		t.Fatalf("want ETA and a final newline:\n%q", out)
	}
}
