package slurm_test

// Fork/replay differential suite: forking a live simulation must be
// decision-invisible. For every committed golden trace the remaining
// decision trace of a forked lineage must be byte-identical to the
// uninterrupted replay, the parent must be unperturbed by the act of
// forking, and a mutation injected into a fork must never leak back.
//
// The suite drives the exact scenarios behind the four goldens
// (internal/workload/testdata/sched_starts_*.golden) through
// workload.Session, forking each at five virtual times spread over
// the trace, and the paper's own scenarios on the builtin planner:
// UC1 under serial, DROM (plain and jittered) and oversubscribe, UC2
// under DROM jittered, forked mid-span, and UC2 under the
// checkpoint/restart baseline forked at every stage of a preemption.
// The node-fault trace also runs jittered, so both seeded streams fork
// together.

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// forkCase is one run: a workload.Spec of one cell, a trace under a
// policy set or a paper scenario on the builtin planner.
type forkCase struct {
	name   string
	spec   string
	faults bool // expect requeue tallies in the rendering
	// at picks the fork instants from the uninterrupted replay (nil =
	// forkTimes over its makespan).
	at func(t *testing.T, base workload.Result) []float64
	// shape, when set, is the (queued, running) job count expected at
	// each fork instant: it keeps a staged case from going vacuous.
	shape [][2]int
	// armed: every fork instant must find a running instance mid-span
	// (Controller.ArmedCredit > 0), so the fork carries an armed span.
	armed bool
	// fork makes the lineages that run beside the parent from a fork
	// instant (nil = one plain fork).
	fork func(t *testing.T, parent *workload.Session, at, makespan float64) []lineage
}

// lineage is one session of a differential row, named for its
// messages.
type lineage struct {
	name string
	sess *workload.Session
}

// plainFork is the default row: the parent and one fork.
func plainFork(t *testing.T, parent *workload.Session, _, _ float64) []lineage {
	t.Helper()
	f, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	return []lineage{{"fork", f}}
}

// forkOfFork forks the parent, runs the child a tenth of the makespan
// on and forks it again: the grandchild's history is the parent's
// records up to the first fork and the child's own up to the second,
// and all three lineages keep recording after that.
func forkOfFork(t *testing.T, parent *workload.Session, at, makespan float64) []lineage {
	t.Helper()
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	child.RunUntil(at + 0.1*makespan)
	grandchild, err := child.Fork()
	if err != nil {
		t.Fatal(err)
	}
	return []lineage{{"child", child}, {"grandchild", grandchild}}
}

// snapshotRestoredTwice forks a never-advanced fork (a snapshot) into
// two lineages, which share the same frozen history.
func snapshotRestoredTwice(t *testing.T, parent *workload.Session, _, _ float64) []lineage {
	t.Helper()
	snap, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	var out []lineage
	for _, name := range []string{"restore 1", "restore 2"} {
		r, err := snap.Fork()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, lineage{name, r})
	}
	return out
}

// aliasingForkCases fork the records' frozen history more than once: a
// fork of a fork on the single-partition trace, and a snapshot restored
// twice on the heterogeneous fault trace.
func aliasingForkCases() []forkCase {
	golden := goldenForkCases()
	fof, snap := golden[0], golden[1]
	fof.name, fof.fork = "fork-of-fork", forkOfFork
	snap.name, snap.fork = "snapshot-restored-twice", snapshotRestoredTwice
	return []forkCase{fof, snap}
}

// goldenForkCases mirrors the four committed golden traces: the
// single-partition 1000-job trace, the heterogeneous fault trace, the
// same with spillover, and the node-fault variant. One policy each
// (varied across cases so all four policies fork somewhere).
func goldenForkCases() []forkCase {
	const hetero = "seeds=1;jobs=600;ia=20;cluster=hetero;cancel=0.06;fail=0.06;check=1"
	return []forkCase{
		{name: "single-partition", spec: "policies=malleable-expand;seeds=1;jobs=1000;nodes=4;check=1"},
		{name: "hetero-faults", spec: "policies=easy;" + hetero},
		{name: "spillover", spec: "sched=batch=easy,fat=malleable-shrink;spill=1;" + hetero},
		{
			name: "nodefault", faults: true,
			spec: "policies=malleable-shrink;mtbf=5000;mttr=800;requeue=1;" + hetero +
				";nodefaults=node0:down@2000..2600+node0:down@2700..3400+node4:down@3000..5000+node2:drain@6000..9000",
		},
	}
}

// builtinForkCases are the paper's scenarios on the builtin planner.
// The UC2 preemption case forks (a) mid checkpoint drain, (b) with the
// checkpointed job queued behind the running high-priority job, and
// (c) inside the launch-latency window of the resumption — the three
// states only this path produces (held cycle event, queued checkpoint
// image, pending evResume).
func builtinForkCases() []forkCase {
	const uc1 = "scenario=uc1;sim=nest1;ana=pils2;policies="
	// Five instants over the makespan, plus one inside the analytics
	// job's launch-latency window: its reservation and the simulator's
	// staged shrink are in shared memory, its ranks not yet registered.
	uc1At := func(_ *testing.T, base workload.Result) []float64 {
		return append(forkTimes(base.Records.TotalRunTime()),
			workload.AnalyticsSubmitTime+slurm.DefaultLaunchLatency/2)
	}
	return []forkCase{
		{name: "uc1-serial", spec: uc1 + "serial", at: uc1At},
		{name: "uc1-drom", spec: uc1 + "drom", at: uc1At},
		// The paper's run-to-run variability: every iteration duration a
		// draw from the cluster's jitter stream, which the fork continues.
		{name: "uc1-drom-jitter", spec: uc1 + "drom;seeds=1;jitter=0.03", at: uc1At},
		// Forked while a jittered span is armed: the fork's instances must
		// draw the rest of their spans from the fork's stream.
		{name: "uc2-drom-jitter-armed", spec: "scenario=uc2;policies=drom;seeds=1;jitter=0.03", armed: true},
		{name: "uc1-oversubscribe", spec: uc1 + "oversubscribe", at: uc1At},
		{
			name: "uc2-preempt", spec: "scenario=uc2;policies=preempt",
			at: func(t *testing.T, base workload.Result) []float64 {
				hp, ok := base.Records.Job("coreneuron")
				if !ok || hp.Start <= workload.HighPrioSubmitTime {
					t.Fatalf("high-priority job did not wait out a checkpoint drain: %+v", hp)
				}
				return []float64{
					(workload.HighPrioSubmitTime + hp.Start) / 2, // (a)
					(hp.Start + hp.End) / 2,                      // (b)
					hp.End + slurm.DefaultLaunchLatency/2,        // (c)
				}
			},
			shape: [][2]int{{2, 0}, {1, 1}, {0, 1}},
		},
	}
}

// nodefaultJitterForkCase forks the controller path's two seeded
// streams together: the node-fault golden (scripted windows and the
// MTBF stream) with jitter on top, so every iteration duration is a
// draw too, executed or taken by the engine.
func nodefaultJitterForkCase() forkCase {
	c := goldenForkCases()[3]
	c.name = "nodefault-jitter"
	c.spec += ";jitter=0.03"
	return c
}

// cell parses the case's spec.
func (c forkCase) cell(t *testing.T) workload.Spec {
	t.Helper()
	s, err := workload.ParseSpec(c.spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scenario materializes the case's submissions.
func (c forkCase) scenario(t *testing.T) workload.Scenario {
	t.Helper()
	sc, err := c.cell(t).Scenario()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// openSession opens the case's cell over sc.
func openSession(t *testing.T, c forkCase, sc workload.Scenario) *workload.Session {
	t.Helper()
	sess, err := c.cell(t).Open(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// renderDecisions is the differential fingerprint: every job's full
// lifecycle plus the fault tallies, in the goldens' number format.
func renderDecisions(w metrics.Workload, faults bool) string {
	rs := append(w.Jobs[:0:0], w.Jobs...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
	var sb strings.Builder
	for _, j := range rs {
		origin := j.Origin
		if origin == "" {
			origin = "-"
		}
		fmt.Fprintf(&sb, "%s %s %s %s %s %s %s\n", j.Name,
			strconv.FormatFloat(j.Submit, 'g', -1, 64),
			strconv.FormatFloat(j.Start, 'g', -1, 64),
			strconv.FormatFloat(j.End, 'g', -1, 64),
			j.Outcome, j.Partition, origin)
	}
	if faults {
		st := metrics.NewSchedStats(w, nil, 0)
		fmt.Fprintf(&sb, "# requeues=%d node_failed=%d lost_work=%s down_node=%s\n",
			st.Requeues, st.NodeFailed,
			strconv.FormatFloat(st.LostWorkS, 'g', -1, 64),
			strconv.FormatFloat(st.DownNodeS, 'g', -1, 64))
	}
	return sb.String()
}

// forkTimes spreads five fork instants over the uninterrupted replay's
// makespan.
func forkTimes(makespan float64) []float64 {
	fr := []float64{0.05, 0.25, 0.45, 0.65, 0.85}
	out := make([]float64, len(fr))
	for i, f := range fr {
		out[i] = f * makespan
	}
	return out
}

// firstDiff fails the test at the first divergent line of two decision
// renderings.
func firstDiff(t *testing.T, label, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: decisions diverged at line %d:\n  got  %q\n  want %q", label, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: decision listing length changed: got %d lines, want %d", label, len(gl), len(wl))
}

// TestForkReplayDifferential forks every golden trace and every
// builtin scenario at its fork instants; the fork and the forked-from
// parent must both finish with the uninterrupted replay's exact
// decision trace, whichever of the two runs to the end first. The
// aliasing rows do the same for a fork of a fork and for a snapshot
// restored twice, every lineage's assembled records held to the
// uninterrupted replay.
func TestForkReplayDifferential(t *testing.T) {
	cases := append(append(goldenForkCases(), nodefaultJitterForkCase()), builtinForkCases()...)
	for _, c := range append(cases, aliasingForkCases()...) {
		t.Run(c.name, func(t *testing.T) {
			sc := c.scenario(t)
			base := openSession(t, c, sc).Run()
			if base.Err != nil {
				t.Fatal(base.Err)
			}
			want := renderDecisions(base.Records, c.faults)
			makespan := base.Records.TotalRunTime()
			if makespan <= 0 {
				t.Fatal("empty baseline replay; the differential is vacuous")
			}
			times := forkTimes(makespan)
			if c.at != nil {
				times = c.at(t, base)
			}
			fork := c.fork
			if fork == nil {
				fork = plainFork
			}
			for i, at := range times {
				// Both orders: a lineage that runs later starts from its
				// fork instant after the others ran the whole rest of the
				// trace — recycling their records and appending to the
				// arrays behind the shared history all the way — so
				// anything a fork shared with a free list, or a record
				// appended past a frozen segment, would show by then.
				for _, parentFirst := range []bool{false, true} {
					sess := openSession(t, c, sc)
					sess.RunUntil(at)
					if got := [2]int{sess.Controller().QueueLen(), sess.Controller().RunningLen()}; c.shape != nil && got != c.shape[i] {
						t.Fatalf("fork at t=%.1f: (queued, running) = %v, want %v", at, got, c.shape[i])
					}
					if c.armed && sess.Controller().ArmedCredit() == 0 {
						t.Fatalf("fork at t=%.1f: no instance is mid-span; the row is vacuous", at)
					}
					lineages := append([]lineage{{"parent", sess}}, fork(t, sess, at, makespan)...)
					if !parentFirst {
						slices.Reverse(lineages)
					}
					results := make([]workload.Result, len(lineages))
					for k, l := range lineages {
						results[k] = l.sess.Run()
					}
					label := fmt.Sprintf("at t=%.1f (parent first: %v)", at, parentFirst)
					for k, l := range lineages {
						if results[k].Err != nil {
							t.Fatalf("%s %s: %v", l.name, label, results[k].Err)
						}
						firstDiff(t, l.name+" "+label, renderDecisions(results[k].Records, c.faults), want)
						if results[k].Events != results[0].Events {
							t.Errorf("%s %s: event counts diverged: %s %d, %s %d", l.name, label,
								l.name, results[k].Events, lineages[0].name, results[0].Events)
						}
					}
				}
			}
		})
	}
}

// TestGoldenScenariosReplayIdenticallyWithoutRecycling replays the four
// golden scenarios on the never-recycling twin of the controller
// (every record, instance and callback allocated afresh; see
// export_test.go): the probe's event stream, the decision trace and
// the step and event counts must be those of the recycling replay.
func TestGoldenScenariosReplayIdenticallyWithoutRecycling(t *testing.T) {
	for _, c := range goldenForkCases() {
		t.Run(c.name, func(t *testing.T) {
			sc := c.scenario(t)
			replay := func(twin bool) (workload.Result, []obs.Event) {
				sess := openSession(t, c, sc)
				if twin {
					sess.Controller().NeverRecycle()
				}
				var events []obs.Event
				sess.Controller().Probe = obs.Func(func(ev obs.Event) {
					ev.WallNanos = 0
					events = append(events, ev)
				})
				res := sess.Run()
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				return res, events
			}
			res, events := replay(false)
			ref, refEvents := replay(true)
			firstDiff(t, "recycling replay against its never-recycling twin",
				renderDecisions(res.Records, c.faults), renderDecisions(ref.Records, c.faults))
			if res.Steps != ref.Steps || res.Events != ref.Events || res.SchedCycles != ref.SchedCycles {
				t.Errorf("steps/events/cycles %d/%d/%d, never-recycling twin %d/%d/%d",
					res.Steps, res.Events, res.SchedCycles, ref.Steps, ref.Events, ref.SchedCycles)
			}
			if len(events) == 0 || len(events) != len(refEvents) {
				t.Fatalf("%d probe events, never-recycling twin %d", len(events), len(refEvents))
			}
			for i := range events {
				if events[i] != refEvents[i] {
					t.Fatalf("probe event %d diverges:\nrecycling       %+v\nnever-recycling %+v", i, events[i], refEvents[i])
				}
			}
		})
	}
}

// TestForkMutationIsolation injects a submission into a fork: the
// fork's decision trace must change, the parent's must not.
func TestForkMutationIsolation(t *testing.T) {
	cases := goldenForkCases()
	c := cases[1] // hetero-faults: contended, two partitions
	sc := c.scenario(t)
	base := openSession(t, c, sc).Run()
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	want := renderDecisions(base.Records, c.faults)
	at := 0.4 * base.Records.TotalRunTime()

	sess := openSession(t, c, sc)
	sess.RunUntil(at)
	fork, err := sess.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Clone an existing job into the fork under a fresh name: its spec
	// and shape are known-valid for the cluster.
	intruder := sc.Subs[0].Job
	intruder.Name = "intruder-from-the-fork"
	if err := fork.Controller().Submit(&intruder); err != nil {
		t.Fatal(err)
	}
	fres := fork.Run()
	if fres.Err != nil {
		t.Fatal(fres.Err)
	}
	if got := len(fres.Records.Jobs); got != len(sc.Subs)+1 {
		t.Errorf("fork recorded %d jobs, want %d (injected submission lost)", got, len(sc.Subs)+1)
	}
	if renderDecisions(fres.Records, c.faults) == want {
		t.Error("fork's decisions unchanged despite the injected submission")
	}
	pres := sess.Run()
	if pres.Err != nil {
		t.Fatal(pres.Err)
	}
	firstDiff(t, "parent after mutated fork", renderDecisions(pres.Records, c.faults), want)
}

// TestForkRecordsDoNotAlias: a record one lineage appends after a fork
// is seen by no other, even while the parent appends into the spare
// capacity of the array the fork's history was cut from. The fork
// cancels a job queued at the fork instant — a record the parent never
// makes — and the two then run in lockstep: at every step the parent's
// records must be a prefix of the uninterrupted replay's, and the
// fork's record after its history must still be the cancellation. Nor
// does a running entry of the fork's views share its Nodes array with
// one of the parent's: the parent recycles its records' arrays for the
// next job.
func TestForkRecordsDoNotAlias(t *testing.T) {
	c := goldenForkCases()[1] // hetero-faults: contended, so jobs queue
	sc := c.scenario(t)
	base := openSession(t, c, sc).Run()
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	end := base.Records.TotalRunTime()
	at := 0.4 * end
	victim := ""
	for _, j := range base.Records.Jobs {
		if j.Submit < at && j.Start > at && j.Outcome == metrics.OutcomeCompleted {
			victim = j.Name
			break
		}
	}
	if victim == "" {
		t.Fatalf("no job queued at t=%.1f", at)
	}

	sess := openSession(t, c, sc)
	sess.RunUntil(at)
	n := sess.Controller().Records.Count()
	fork, err := sess.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if entries, shared := fork.Controller().SharedViewNodes(sess.Controller()); entries == 0 || shared > 0 {
		t.Fatalf("%d of the fork's %d running view entries share Nodes with the parent's; want some entries, none shared", shared, entries)
	}
	if !fork.Controller().Cancel(victim) {
		t.Fatalf("%s is not queued in the fork", victim)
	}
	cancelled := slices.Collect(fork.Controller().Records.All())[n]
	if cancelled.Name != victim || cancelled.Outcome != metrics.OutcomeCancelled {
		t.Fatalf("the fork's first record is %+v, want %s cancelled", cancelled, victim)
	}
	for now := at; now < end; now += end / 100 {
		sess.RunUntil(now)
		fork.RunUntil(now)
		parent := slices.Collect(sess.Controller().Records.All())
		if !slices.Equal(parent, base.Records.Jobs[:len(parent)]) {
			t.Fatalf("t=%.1f: the parent's records left the uninterrupted replay's", now)
		}
		if got := slices.Collect(fork.Controller().Records.All())[n]; got != cancelled {
			t.Fatalf("t=%.1f: the fork's record after its history is %+v, want the cancellation %+v", now, got, cancelled)
		}
	}
}

// TestForkRefusals: fork must refuse the one state it cannot clone
// faithfully rather than fork wrong — and nothing else.
func TestForkRefusals(t *testing.T) {
	// Builtin-mode controller (no sched policy installed): forks.
	uc1 := forkCase{spec: "scenario=uc1;policies=drom"}
	sess := openSession(t, uc1, uc1.scenario(t))
	if _, err := sess.Fork(); err != nil {
		t.Errorf("Fork of a builtin-mode controller refused: %v", err)
	}
	// Failed controller: its state is already wrong.
	sess.Controller().Err = fmt.Errorf("injected")
	if _, err := sess.Fork(); err == nil {
		t.Error("Fork of a failed controller succeeded; want refusal")
	}
	// Jittered cluster: the child continues the jitter stream.
	jsc, err := workload.SyntheticSWFScenario(workload.SyntheticSWF{Seed: 5, Jobs: 10, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	jsc.JitterFrac = 0.03
	jsc.Seed = 1
	jsess, err := workload.NewSchedSession(jsc, &sched.FCFS{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jsess.Fork(); err != nil {
		t.Errorf("Fork of a jittered cluster refused: %v", err)
	}
}
