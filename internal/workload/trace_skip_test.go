package workload

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/slurm"
	"repro/internal/trace"
)

// A traced run skips its steady iterations too, and its tracer stores
// each span once and expands it on read. The tests here hold every
// traced scenario of the paper to its never-arming twin — the same
// session with apps.DemandTable.NeverArm set, which executes and records
// every iteration — on the bytes the exporters write and on what a read
// in the middle of the run sees.

// tracedPair opens sc under policy twice, traced: as it ships, and as
// the never-arming twin.
func tracedPair(t *testing.T, sc Scenario, policy slurm.Policy) (armed, twin *Session) {
	t.Helper()
	sc.Trace = true
	open := func(never bool) *Session {
		sess, err := kitEntry{sc: sc, policy: policy}.open(new(kit))
		if err != nil {
			t.Fatal(err)
		}
		if never {
			// No instance has iterated yet: arming is decided at the end of
			// an iteration, and iterations are engine events.
			sess.Controller().Cluster().Demand.NeverArm()
		}
		return sess
	}
	return open(false), open(true)
}

// TestTracedScenariosExportLikeTheirNeverArmingTwins: every scenario
// that sets Trace — UC1 under Serial and DROM, UC2 under all four
// policies — writes byte-identical CSV, .prv, .pcf and .row to its twin,
// takes the same number of steps, and executes a small part of them.
func TestTracedScenariosExportLikeTheirNeverArmingTwins(t *testing.T) {
	uc1 := UC1("nest", apps.Config{Ranks: 2, Threads: 16}, "pils", apps.Config{Ranks: 2, Threads: 4}, true)
	for _, c := range []struct {
		name   string
		sc     Scenario
		policy slurm.Policy
	}{
		{"uc1/serial", uc1, slurm.PolicySerial},
		{"uc1/drom", uc1, slurm.PolicyDROM},
		{"uc2/serial", UC2(true), slurm.PolicySerial},
		{"uc2/drom", UC2(true), slurm.PolicyDROM},
		{"uc2/oversubscribe", UC2(true), slurm.PolicyOversubscribe},
		{"uc2/preempt", UC2(true), slurm.PolicyPreempt},
	} {
		t.Run(c.name, func(t *testing.T) {
			armed, twin := tracedPair(t, c.sc, c.policy)
			got, want := armed.Run(), twin.Run()
			if got.Err != nil || want.Err != nil {
				t.Fatalf("errors: armed %v, twin %v", got.Err, want.Err)
			}
			if got.Steps != want.Steps || want.Events != want.Steps {
				t.Fatalf("steps: armed %d, twin %d of which %d executed", got.Steps, want.Steps, want.Events)
			}
			if got.Events*10 > got.Steps {
				t.Errorf("the traced run executed %d of %d steps", got.Events, got.Steps)
			}
			for _, w := range []struct {
				ext   string
				write func(*trace.Tracer, io.Writer) error
			}{
				{".csv", (*trace.Tracer).WriteCSV}, {".prv", (*trace.Tracer).WritePRV},
				{".pcf", (*trace.Tracer).WritePCF}, {".row", (*trace.Tracer).WriteROW},
			} {
				var a, b bytes.Buffer
				if err := w.write(got.Tracer, &a); err != nil {
					t.Fatal(err)
				}
				if err := w.write(want.Tracer, &b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Errorf("%s differs from the twin's (%d bytes, twin %d)", w.ext, a.Len(), b.Len())
				}
			}
			t.Logf("%d steps, %d executed; %d segments", got.Steps, got.Events, len(got.Tracer.Segments()))
		})
	}
}

// TestTracedSessionReadMidRun: Session.Result is valid at any point,
// so a read between two RunUntil calls must see the segments of every
// iteration begun so far — those of a span still open included. UC2
// under DROM is stopped inside NEST's first span, exactly on one of its
// iteration boundaries, either side of CoreNeuron's arrival, inside the
// shared phase and after it; at each stop the segments equal the twin's.
func TestTracedSessionReadMidRun(t *testing.T) {
	ref := Run(UC2(true), slurm.PolicyDROM)
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	all := ref.Tracer.Segments()
	boundary := all[len(all)/5].T0 // the start of some NEST iteration
	if !(boundary > 100 && boundary < HighPrioSubmitTime) {
		t.Fatalf("scenario broken: iteration boundary picked at %v", boundary)
	}
	stops := []float64{137.3, boundary, HighPrioSubmitTime - 1, HighPrioSubmitTime, HighPrioSubmitTime + 400.5, 2300, 2900}
	armed, twin := tracedPair(t, UC2(true), slurm.PolicyDROM)
	seen := 0
	for _, at := range stops {
		armed.RunUntil(at)
		twin.RunUntil(at)
		got, want := armed.Result().Tracer.Segments(), twin.Result().Tracer.Segments()
		if !slices.Equal(got, want) {
			t.Fatalf("at t=%v the read sees %d segments, the twin's %d, or they differ", at, len(got), len(want))
		}
		if len(got) <= seen {
			t.Fatalf("at t=%v the read sees %d segments, %d at the previous stop", at, len(got), seen)
		}
		seen = len(got)
	}
	if !slices.ContainsFunc(all, func(s trace.Segment) bool { return s.T0 == boundary }) || seen == len(all) {
		t.Fatalf("scenario broken: %d segments at the last stop of %d", seen, len(all))
	}
	got, want := armed.Run(), twin.Run()
	if !slices.Equal(got.Tracer.Segments(), all) || !slices.Equal(want.Tracer.Segments(), all) {
		t.Fatal("the stopped runs end on other segments than the uninterrupted one")
	}
	if got.Steps != ref.Steps || got.Events > ref.Events+2*int64(len(stops)) {
		t.Errorf("stopped run: %d steps (%d executed), uninterrupted %d (%d): a read costs at most one executed step per open span",
			got.Steps, got.Events, ref.Steps, ref.Events)
	}
}

// TestTracedRunAllocs pins what attaching a tracer costs a run in
// allocations: UC2 under DROM traced stays within 1.25x the untraced
// run plus 8 for the tracer itself (its block and row chunks, its
// lanes, the instances' pattern scratch). Levels when written: 192
// untraced, 207 traced; when a traced run executed every iteration and
// the tracer kept a record per segment it was 5 595 — a CPU list per
// rank per iteration and 21 chunks of 224 KB.
func TestTracedRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	measure := func(traced bool) float64 {
		return testing.AllocsPerRun(5, func() {
			if res := Run(UC2(traced), slurm.PolicyDROM); res.Err != nil {
				t.Fatal(res.Err)
			}
		})
	}
	plain, traced := measure(false), measure(true)
	if limit := 1.25*plain + 8; traced > limit {
		t.Errorf("traced UC2 allocates %.0f a run, untraced %.0f: want <= %.0f", traced, plain, limit)
	}
	t.Logf("allocations per run: untraced %.0f, traced %.0f", plain, traced)
}
