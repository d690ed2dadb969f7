package slurm

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzIncrementalCycle turns its input into a small trace — 1–3
// partitions of 1–3 nodes, one policy per partition, spillover and
// its thresholds, scripted down/drain windows with a requeue cap, and
// 8–48 jobs with malleable and rigid shapes, priorities, mid-run
// failures, scancels and malleability flips of queued jobs — replays
// it with DebugInvariants on, and forks it once on the way. After
// every scheduling cycle of both lineages the free accounting must
// match shared memory and every view entry its record
// (checkFreeInvariant fails the controller otherwise); every accepted
// job must be recorded, nothing may stay registered in shared memory,
// and the fork — which starts from a copy of its parent's views — must
// decide exactly as its parent does.
//
// Every trace is then replayed once more on the never-recycling twin —
// a controller (and its fork) whose free lists stay empty, so every
// submission and launch builds its record, its instance and its
// callbacks afresh. Which memory a record lives in is no decision
// input: the probe's event stream, the records and the step counts must
// be identical, skipped share included.
//
// Last, the builtin twin replays the trace on the paper's planner
// (PolicyDROM, no policy installed) over the same store of live jobs:
// the store check after every builtin cycle, every accepted job
// recorded, nothing left registered, and a fork that decides as its
// parent. The two planners decide differently by design; nothing
// compares them.
//
// Then the trace replays once more on the engine, cluster and
// controller the builtin twin leaves behind, each reset in place
// (sim.Engine.Reset, Cluster.Reset, Controller.Reset — the path every
// one-shot replay of package workload takes): a reset system is a new
// one, so the outcome must be the first replay's.
//
// Plain `go test` replays the seeds below and the committed corpus
// under testdata/fuzz/FuzzIncrementalCycle.
func FuzzIncrementalCycle(f *testing.F) {
	// An exhausted input reads as zeros: the empty seed is eight equal
	// jobs on one node. The committed corpus holds the busy traces.
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		out := replayFuzzTrace(t, data, fuzzTwin{})
		ref := replayFuzzTrace(t, data, fuzzTwin{neverRecycle: true})
		if out.skipped != ref.skipped {
			t.Errorf("skipped steps: recycling %d, never-recycling twin %d", out.skipped, ref.skipped)
		}
		out.mustEqual(t, "recycling", ref, "never-recycling")
		reused := new(fuzzKit)
		replayFuzzTrace(t, data, fuzzTwin{builtin: true, kit: reused})
		replayFuzzTrace(t, data, fuzzTwin{kit: reused}).mustEqual(t, "reset", out, "recycling")
	})
}

// fuzzKit holds the engine, cluster and controller of a replay, for
// the next replay on it to reset (fuzzTwin.kit).
type fuzzKit struct {
	eng *sim.Engine
	c   *Cluster
	ctl *Controller
}

// fuzzOutcome is what the parent lineage of a fuzz trace produced: its
// probe's event stream (wall times blanked, the engine's two counts
// folded into steps), its job records and its step counts.
type fuzzOutcome struct {
	events  []obs.Event
	jobs    []metrics.JobRecord
	steps   int64
	skipped int64
}

// TestFuzzCorpusReplaysIdenticallyWithoutSkipping replays every
// committed FuzzIncrementalCycle entry twice more. The reference is the
// never-arming twin (apps.DemandTable.NeverArm): every instance executes
// every iteration and hands no span to the engine. The third leg
// attaches a tracer: a traced instance arms solo — it lets the engine
// take only the iterations that are alone at their instant — and a
// tracer by contract influences no decision. All three must give the
// same observable event stream, records and step count, with only the
// executed share of the steps differing; the traced twin's segments
// must be the reference's, traced too, element for element. (Forks
// drop the tracer, so it is the parent lineage that is compared; each
// fork is already held to its own parent by replayFuzzTrace.) A
// jittered twin (JitterFrac 0.03), whose instances arm with the
// cluster's jitter stream, is held the same way to its own never-arming
// twin on the same seed.
func TestFuzzCorpusReplaysIdenticallyWithoutSkipping(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzIncrementalCycle", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus (err=%v)", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			_, lit, ok := strings.Cut(string(raw), "[]byte(")
			if !ok {
				t.Fatalf("%s is not a []byte corpus entry", file)
			}
			str, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
			if err != nil {
				t.Fatal(err)
			}
			armed := replayFuzzTrace(t, []byte(str), fuzzTwin{})
			refTrace, tracedTrace := trace.New(), trace.New()
			ref := replayFuzzTrace(t, []byte(str), fuzzTwin{tracer: refTrace, neverArm: true})
			traced := replayFuzzTrace(t, []byte(str), fuzzTwin{tracer: tracedTrace})
			jittered := replayFuzzTrace(t, []byte(str), fuzzTwin{jitter: 0.03})
			jitteredRef := replayFuzzTrace(t, []byte(str), fuzzTwin{jitter: 0.03, neverArm: true})
			if ref.skipped != 0 || armed.skipped == 0 || traced.skipped == 0 || traced.skipped > armed.skipped {
				t.Fatalf("skipped steps: armed %d, traced twin %d, reference %d — want some, some but no more, and none",
					armed.skipped, traced.skipped, ref.skipped)
			}
			if jitteredRef.skipped != 0 || jittered.skipped == 0 {
				t.Fatalf("skipped steps: jittered %d, its reference %d — want some and none", jittered.skipped, jitteredRef.skipped)
			}
			armed.mustEqual(t, "armed", ref, "reference")
			traced.mustEqual(t, "traced", ref, "reference")
			jittered.mustEqual(t, "jittered", jitteredRef, "jittered reference")
			if got, want := tracedTrace.Segments(), refTrace.Segments(); !slices.Equal(got, want) {
				t.Fatalf("the traced twin has %d segments, the reference %d, or they differ", len(got), len(want))
			}
			t.Logf("%d steps (%d skipped when armed, %d when traced), %d events, %d jobs, %d segments; jittered %d steps, %d skipped",
				armed.steps, armed.skipped, traced.skipped, len(armed.events), len(armed.jobs), len(refTrace.Segments()),
				jittered.steps, jittered.skipped)
		})
	}
}

// mustEqual holds two replays of one trace to the same observable
// outcome: step count, records and probe event stream.
func (o fuzzOutcome) mustEqual(t *testing.T, name string, ref fuzzOutcome, refName string) {
	t.Helper()
	if o.steps != ref.steps {
		t.Errorf("steps: %s %d, %s %d", name, o.steps, refName, ref.steps)
	}
	if !reflect.DeepEqual(o.jobs, ref.jobs) {
		t.Errorf("records diverge:\n%s %+v\n%s %+v", name, o.jobs, refName, ref.jobs)
	}
	if len(o.events) != len(ref.events) {
		t.Fatalf("%s: %d events, %s %d", name, len(o.events), refName, len(ref.events))
	}
	for i := range o.events {
		if o.events[i] != ref.events[i] {
			t.Fatalf("event %d diverges:\n%s %+v\n%s %+v", i, name, o.events[i], refName, ref.events[i])
		}
	}
}

// fuzzOp is one scripted input of a fuzz trace: a submission, an
// scancel or a malleability flip, run on whichever lineage's
// controller handles its event (fuzzOpClass, the slot its index).
type fuzzOp struct {
	at    float64
	do    func(ctl *Controller)
	fired bool
}

// fuzzOpClass is the class of a fuzz trace's scripted inputs.
var fuzzOpClass = sim.NewClass("slurm.fuzzop")

// fuzzTwin selects the variant of the system a fuzz trace is replayed
// on: with a tracer attached, on the never-recycling twin of the
// controller, with instances that never arm, on a cluster jittered by
// this fraction (seed 1), on the builtin planner instead of the
// trace's policies, on the system a kit holds. The zero value is the
// system as it ships, built afresh.
type fuzzTwin struct {
	tracer       *trace.Tracer
	neverRecycle bool
	neverArm     bool
	jitter       float64
	builtin      bool
	// kit, when set, has the replay reset the system it holds, or build
	// one, and leaves the replay's system in it.
	kit *fuzzKit
}

// replayFuzzTrace decodes data into a trace and replays it (see
// FuzzIncrementalCycle) on the given twin. Bytes are consumed in order;
// an exhausted input reads as zeros, so every input is a valid trace.
func replayFuzzTrace(t *testing.T, data []byte, twin fuzzTwin) fuzzOutcome {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	machines := []hwmodel.Machine{hwmodel.MN3(), hwmodel.FatNode()}
	var spec hwmodel.ClusterSpec
	for pi, np := 0, 1+next()%3; pi < np; pi++ {
		spec.Partitions = append(spec.Partitions, hwmodel.Partition{
			Name: fmt.Sprintf("p%d", pi), Nodes: 1 + next()%3, Machine: machines[next()%2],
		})
	}
	k := twin.kit
	if k == nil || k.eng == nil {
		k = &fuzzKit{eng: new(sim.Engine), c: new(Cluster), ctl: new(Controller)}
	}
	eng, c, ctl := k.eng, k.c, k.ctl
	eng.Reset()
	if err := c.Reset(eng, spec, twin.tracer, nil); err != nil {
		t.Fatal(err)
	}
	if twin.neverArm {
		c.Demand.NeverArm()
	}
	if twin.jitter > 0 {
		eng.SetJitter(sim.NewRand(1), twin.jitter)
	}
	ctl.Reset(c, PolicyDROM)
	if twin.kit != nil {
		*twin.kit = *k
	}
	ctl.neverRecycle = twin.neverRecycle
	var out fuzzOutcome
	ctl.Probe = obs.Func(func(ev obs.Event) {
		ev.WallNanos = 0
		ev.Processed, ev.Skipped = ev.Processed+ev.Skipped, 0
		out.events = append(out.events, ev)
	})
	if err := ctl.installScheds(func(int) (sched.Policy, error) {
		return sched.New(sched.Names()[next()%len(sched.Names())])
	}); err != nil {
		t.Fatal(err)
	}
	if twin.builtin {
		// The policy bytes are read all the same, so the rest of the
		// trace decodes as it does for the other twins.
		ctl.UseSched(nil)
	}
	ctl.DebugInvariants = true
	ctl.Spillover = next()%2 == 1
	ctl.SpillAfter = float64(next()%4) * 20
	ctl.SpillDepth = next() % 3
	// A byte once chose the node order; it is still read, so the
	// committed corpus decodes as it always has.
	next()
	var script []string
	for k, nw := 0, next()%4; k < nw; k++ {
		kind := []string{"down", "drain"}[next()%2]
		from := next() * 3
		script = append(script, fmt.Sprintf("node%d:%s@%d..%d", next()%len(c.Nodes), kind, from, from+10+2*next()))
	}
	if err := ctl.InstallFaults(FaultPlan{Script: strings.Join(script, "+"), MaxRequeues: next()%3 - 1}); err != nil {
		t.Fatal(err)
	}

	var ops []*fuzzOp
	accepted := 0
	at := 0.0
	for i, nj := 0, 8+next()%41; i < nj; i++ {
		part := spec.Partitions[next()%len(spec.Partitions)]
		nodes := 1 + next()%part.Nodes
		cpus := min([]int{16, 8, 32, 4, 16, 32, 2, 1}[next()%8], part.Machine.CoresPerNode())
		flags := next()
		j := &Job{
			Name: fmt.Sprintf("j%d", i), Spec: fastSpec(20 + next()%200),
			Cfg:   apps.Config{Ranks: nodes, Threads: cpus},
			Nodes: nodes, Priority: flags % 3, Partition: part.Name,
			Walltime: []float64{0, 20, 60, 60, 200, 2000}[next()%6], Malleable: flags&4 != 0,
		}
		if flags&8 != 0 {
			j.FailAfter = float64(1 + next()%40)
		}
		at += float64(next() % 8)
		ops = append(ops, &fuzzOp{at: at, do: func(ctl *Controller) {
			if ctl.Submit(j) == nil {
				accepted++
			}
		}})
		if flags&16 != 0 {
			ops = append(ops, &fuzzOp{at: at + float64(next()%60), do: func(ctl *Controller) { ctl.Cancel(j.Name) }})
		}
		if flags&32 != 0 {
			ops = append(ops, &fuzzOp{at: at + float64(next()%30), do: func(ctl *Controller) { ctl.SetQueuedMalleable(j.Name, !j.Malleable) }})
		}
	}
	eng.Handle(fuzzOpClass, func(i int32) { ops[i].fired = true; ops[i].do(ctl) })
	for i, op := range ops {
		eng.Post(op.at, fuzzOpClass, int32(i))
	}

	// Run the parent to the fork instant, fork, register the trace's own
	// inputs' handler on the fork, and finish both lineages.
	eng.RunUntil(at * float64(next()%8) / 8)
	checkErr(t, ctl)
	forkedAt, queued, running := eng.Now(), ctl.QueueLen(), ctl.RunningLen()
	parentAccepted := accepted
	fork, feng, err := ctl.Fork()
	if err != nil {
		t.Fatal(err)
	}
	feng.Handle(fuzzOpClass, func(i int32) { ops[i].do(fork) })
	if err := feng.CheckFork(); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	total := accepted
	out.jobs = slices.Collect(ctl.Records.All())
	out.skipped = eng.Skipped()
	out.steps = eng.Processed() + out.skipped
	feng.Run()
	for _, l := range []struct {
		name string
		ctl  *Controller
		jobs int
	}{{"parent", ctl, total}, {"fork", fork, parentAccepted + accepted - total}} {
		if l.ctl.Err != nil {
			t.Fatalf("%s: controller error: %v", l.name, l.ctl.Err)
		}
		if got := l.ctl.Records.Count(); got != l.jobs || l.ctl.QueueLen() != 0 || l.ctl.RunningLen() != 0 {
			t.Fatalf("%s: recorded %d of %d accepted jobs (queue=%d running=%d)",
				l.name, got, l.jobs, l.ctl.QueueLen(), l.ctl.RunningLen())
		}
		for _, node := range l.ctl.cluster.Nodes {
			if n := l.ctl.cluster.System(node).Segment().NumProcs(); n != 0 {
				t.Fatalf("%s: %d processes left registered on %s", l.name, n, node)
			}
		}
	}
	t.Logf("%s: %d jobs, %d cycles, %d spilled, %d requeues, forked at t=%v of %v with %d queued and %d running",
		spec, total, ctl.Cycles, tallyOf(ctl.Records).Spilled, tallyOf(ctl.Records).Requeues, forkedAt, eng.Now(), queued, running)
	if got := slices.Collect(fork.Records.All()); !slices.Equal(got, out.jobs) {
		t.Fatalf("fork decided differently:\nfork   %+v\nparent %+v", got, out.jobs)
	}
	return out
}
