package workload

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// TestStreamLightStepsPinned replays the input of the benchmark's
// stream_light workload — 25 000 synthetic jobs on 4 nodes, streamed
// under EASY — and pins the step count to the number of events the
// engine executed before it learned to advance steady iterations by
// itself (3 331 319: one per iteration, plus submissions, launches and
// cycles). Executed + skipped must equal it exactly, whatever the
// split; the split itself must show that nearly every iteration is
// skipped; and the probed twin's heartbeat must keep firing every
// engineProbeEvery steps, not every engineProbeEvery executed events.
func TestStreamLightStepsPinned(t *testing.T) {
	const wantSteps = 3331319
	gen := SyntheticSWF{Seed: 1, Jobs: 25000, Nodes: 4, MeanInterarrival: 60}
	replay := func(p obs.Probe) Result {
		policy, err := sched.New("easy")
		if err != nil {
			t.Fatal(err)
		}
		res := RunSchedStream(Scenario{Nodes: 4, Probe: p}, gen.Source(), policy)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	plain := replay(nil)
	if plain.Steps != wantSteps {
		t.Errorf("Steps = %d, want %d", plain.Steps, wantSteps)
	}
	if plain.Events*10 > plain.Steps {
		t.Errorf("executed %d of %d steps: steady iterations are not being skipped", plain.Events, plain.Steps)
	}
	if plain.SchedCycles != 49993 {
		t.Errorf("SchedCycles = %d, want 49993", plain.SchedCycles)
	}

	var beats []obs.Event
	probed := replay(obs.Func(func(ev obs.Event) {
		if ev.Kind == obs.KindEngine {
			beats = append(beats, ev)
		}
	}))
	if probed.Steps != plain.Steps || probed.Events != plain.Events {
		t.Errorf("probed run took %d steps (%d executed), unprobed %d (%d)", probed.Steps, probed.Events, plain.Steps, plain.Events)
	}
	if len(beats) != wantSteps/engineProbeEvery {
		t.Fatalf("%d heartbeats over %d steps, want one per %d", len(beats), probed.Steps, engineProbeEvery)
	}
	for i, ev := range beats {
		if got := ev.Processed + ev.Skipped; got != int64(i+1)*engineProbeEvery {
			t.Fatalf("heartbeat %d at step %d (executed %d, skipped %d), want %d", i, got, ev.Processed, ev.Skipped, int64(i+1)*engineProbeEvery)
		}
		if i > 0 && !(ev.Time > beats[i-1].Time) {
			t.Fatalf("heartbeat %d at t=%v does not follow t=%v", i, ev.Time, beats[i-1].Time)
		}
	}
}

// TestLedgerEditsWakeOnlyOnAMovedFactor pins the work of the
// heterogeneous fault trace replayed with spillover under a mixed
// policy set: 76 420 steps, executed or skipped, of which at most
// 7 000 executed (6 850; 10 234 when every edit to a node's ledger
// woke the instances on it, whether a contention factor moved or not).
// What the replay decides is the goldens' concern; this holds the wake
// rule to its saving.
func TestLedgerEditsWakeOnlyOnAMovedFactor(t *testing.T) {
	sc := heteroFaultScenario(t)
	sc.Spill = true
	ps, err := sched.ParsePolicySet("batch=easy,fat=malleable-expand")
	if err != nil {
		t.Fatal(err)
	}
	res := RunSchedSet(sc, ps)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Steps != 76420 {
		t.Errorf("Steps = %d, want 76420", res.Steps)
	}
	if res.Events > 7000 {
		t.Errorf("executed %d of %d steps, want at most 7000", res.Events, res.Steps)
	}
}

// TestPaperRunsTakeMergesInClosedForm pins how UC1 under DROM takes its
// steady iterations: nest and the analytics job iterate at two periods
// on the same nodes, so the engine merges their chains, and a merge of
// two plain chains takes all but its first strideAfter runs in closed
// form. 2 245 of the 2 294 occurrences skipped are so taken; a change
// that drops the closed form fails here, not only in a timing.
func TestPaperRunsTakeMergesInClosedForm(t *testing.T) {
	c := paperCategories()[1]
	if c.name != "uc1-drom" {
		t.Fatalf("paperCategories()[1] is %s, want uc1-drom", c.name)
	}
	sess, err := c.open(new(kit))
	if err != nil {
		t.Fatal(err)
	}
	if res := sess.Run(); res.Err != nil {
		t.Fatal(res.Err)
	}
	eng := sess.Engine()
	if strided, skipped := eng.Strided(), eng.Skipped(); skipped == 0 || float64(strided) < 0.95*float64(skipped) {
		t.Errorf("%d of %d skipped occurrences taken in closed form, want at least 95 %%", strided, skipped)
	}
}
