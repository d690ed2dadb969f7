package apps

import (
	"math"
	"testing"

	"repro/internal/cpuset"
)

// TestResumeInLastIterationRunsItAgain: a checkpoint taken during the
// last iteration — its end event already booked — loses that
// iteration, so Resume runs it again after the restart cost instead of
// ending the job at once, and the count never passes Iters. The
// instance decides from its count alone which event is due.
func TestResumeInLastIterationRunsItAgain(t *testing.T) {
	b := newBed()
	spec := Pils()
	spec.InitSeconds = 0
	spec.CommSeconds = 0
	cfg := Config{Ranks: 2, Threads: 16}
	inst, _ := NewInstance(spec, cfg, 10, "p", b.eng, b.demand, nil, b.placements(cfg))
	var end float64
	inst.OnComplete = func(e float64) { end = e }
	inst.Start()
	for inst.ItersDone() < inst.Iters && b.eng.Step() {
	}
	b.eng.At(b.eng.Now()+0.5, inst.Stop)
	b.eng.RunUntil(50)
	if err := inst.Resume(b.placements(cfg), 3); err != nil {
		t.Fatal(err)
	}
	b.eng.Run()
	if !inst.Completed() || inst.ItersDone() != 10 {
		t.Fatalf("completed=%v after %d iterations, want 10", inst.Completed(), inst.ItersDone())
	}
	if want := 50 + 3 + 1.0; math.Abs(end-want) > 0.1 { // ~1 s iterations
		t.Errorf("end = %v, want ~%v: the lost iteration runs again", end, want)
	}
}

// TestStopResumePreservesProgress: a checkpointed instance resumes
// from its iteration count and the total work is conserved.
func TestStopResumePreservesProgress(t *testing.T) {
	b := newBed()
	spec := Pils()
	spec.InitSeconds = 0
	spec.CommSeconds = 0
	cfg := Config{Ranks: 2, Threads: 16}
	inst, _ := NewInstance(spec, cfg, 300, "p", b.eng, b.demand, nil, b.placements(cfg))
	var end float64
	inst.OnComplete = func(e float64) { end = e }
	inst.Start()

	// Run ~100 iterations (1 s each), then checkpoint.
	b.eng.RunUntil(100.5)
	inst.Stop()
	if !inst.stopped {
		t.Fatal("not stopped")
	}
	done := inst.ItersDone()
	if done < 95 || done > 105 {
		t.Fatalf("iters at checkpoint = %d", done)
	}
	// Shared memory is clean during the suspension.
	for _, n := range []string{"node0", "node1"} {
		if b.sys[n].Segment().NumProcs() != 0 {
			t.Fatalf("%s has leftover registrations", n)
		}
	}
	// The engine drains with no pending instance events.
	b.eng.Run()
	if inst.Completed() {
		t.Fatal("stopped instance completed by itself")
	}

	// Resume 500 s later with a restart cost of 30 s.
	b.eng.RunUntil(600)
	if err := inst.Resume(b.placements(cfg), 30); err != nil {
		t.Fatal(err)
	}
	b.eng.Run()
	if !inst.Completed() {
		t.Fatal("resumed instance did not complete")
	}
	// Remaining 300-done iterations at ~1 s, plus the restart cost.
	want := 600 + 30 + float64(300-done)
	if math.Abs(end-want) > 3 {
		t.Errorf("end = %v, want ~%v", end, want)
	}
}

func TestResumeValidation(t *testing.T) {
	b := newBed()
	cfg := Config{Ranks: 2, Threads: 16}
	inst, _ := NewInstance(Pils(), cfg, 10, "p", b.eng, b.demand, nil, b.placements(cfg))
	inst.OnComplete = func(float64) {}
	// Resume before Stop fails.
	if err := inst.Resume(b.placements(cfg), 0); err == nil {
		t.Error("Resume on running instance should fail")
	}
	inst.Start()
	b.eng.RunUntil(2)
	inst.Stop()
	// Wrong placement count fails.
	if err := inst.Resume(b.placements(Config{Ranks: 4, Threads: 8}), 0); err == nil {
		t.Error("Resume with wrong placements should fail")
	}
}

func TestStopIsIdempotentAndSafe(t *testing.T) {
	b := newBed()
	cfg := Config{Ranks: 2, Threads: 16}
	inst, _ := NewInstance(Pils(), cfg, 10, "p", b.eng, b.demand, nil, b.placements(cfg))
	inst.Stop() // before start: no-op
	inst.OnComplete = func(float64) {}
	inst.Start()
	b.eng.RunUntil(2)
	inst.Stop()
	inst.Stop() // twice: no-op
	b.eng.Run()
	if inst.Completed() {
		t.Fatal("should stay checkpointed")
	}
}

// TestResumeOnDifferentCPUs: the resumed instance can land on another
// part of the node (the masks are whatever the manager reserved).
func TestResumeOnDifferentCPUs(t *testing.T) {
	b := newBed()
	spec := Pils()
	spec.InitSeconds = 0
	cfg := Config{Ranks: 2, Threads: 8}
	pl := []Placement{
		{Node: "node0", Sys: b.sys["node0"], PID: b.reg.AllocPID(), InitialMask: cpuset.Range(0, 7)},
		{Node: "node1", Sys: b.sys["node1"], PID: b.reg.AllocPID(), InitialMask: cpuset.Range(0, 7)},
	}
	inst, _ := NewInstance(spec, cfg, 50, "p", b.eng, b.demand, nil, pl)
	inst.OnComplete = func(float64) {}
	inst.Start()
	b.eng.RunUntil(5)
	inst.Stop()
	pl2 := []Placement{
		{Node: "node0", Sys: b.sys["node0"], PID: b.reg.AllocPID(), InitialMask: cpuset.Range(8, 15)},
		{Node: "node1", Sys: b.sys["node1"], PID: b.reg.AllocPID(), InitialMask: cpuset.Range(8, 15)},
	}
	if err := inst.Resume(pl2, 0); err != nil {
		t.Fatal(err)
	}
	b.eng.Run()
	if !inst.Completed() {
		t.Fatal("did not complete after relocation")
	}
	if !inst.ranks[0].mask.Equal(cpuset.Range(8, 15)) {
		t.Errorf("relocated mask = %v", inst.ranks[0].mask)
	}
}

// TestStopInWindowResumeStop: an instance checkpointed inside its
// launch-latency window (Stop before Start, so the deferred Start is a
// no-op) and then resumed is a started instance like any other — a
// second Stop must cancel its pending event and release every
// registration and all demand, not take the "never registered" branch.
func TestStopInWindowResumeStop(t *testing.T) {
	b := newBed()
	spec := Pils()
	spec.InitSeconds = 0
	cfg := Config{Ranks: 2, Threads: 16}
	inst, _ := NewInstance(spec, cfg, 300, "p", b.eng, b.demand, nil, b.placements(cfg))
	inst.OnComplete = func(float64) {}
	inst.Stop()
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Resume(b.placements(cfg), 0); err != nil {
		t.Fatal(err)
	}
	b.eng.RunUntil(50)
	if done := inst.ItersDone(); done < 45 {
		t.Fatalf("resumed instance ran %d iterations in 50 s", done)
	}
	inst.Stop()
	for _, n := range []string{"node0", "node1"} {
		if got := b.sys[n].Segment().NumProcs(); got != 0 {
			t.Errorf("%s: %d registrations left after the second Stop", n, got)
		}
		if got := b.demand.Threads(n); got != 0 {
			t.Errorf("%s: %d threads of demand left after the second Stop", n, got)
		}
	}
	if inst.tick != 0 {
		t.Error("the instance's event is still pending after the second Stop")
	}
	b.eng.Run()
	if inst.Completed() {
		t.Error("stopped instance completed by itself")
	}
}
