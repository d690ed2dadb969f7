package workload

// One driver, every source: a materialized []Submission and a lazy
// SubmissionSource go through the same Session, so they must decide
// identically, honour the same Scenario fields and release what they
// hold on every exit.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hwmodel"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slurm"
)

// schedTraced runs one replay with the -trace-sched consumer attached
// and returns the JSONL bytes next to the result.
func schedTraced(t *testing.T, s Scenario, run func(Scenario) Result) ([]byte, Result) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewSchedTrace(&buf)
	s.Probe = tr
	res := run(s)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestSliceAndLazySourcesReplayIdentically: for every scenario class
// the replay supports, the trace materialized into Scenario.Subs and
// the same trace pulled lazily from its generator produce identical
// -trace-sched bytes, cycle and event counts and SchedStats; a
// slice-backed session forked mid-run finishes both lineages on the
// same statistics, and a lazy one refuses to fork.
func TestSliceAndLazySourcesReplayIdentically(t *testing.T) {
	hetero := SyntheticSWF{
		Seed: 2, Jobs: 300, MeanInterarrival: 20,
		Cluster: hwmodel.HeteroMN3(), CancelRate: 0.05, FailRate: 0.05,
	}
	cases := []struct {
		name  string
		gen   SyntheticSWF
		knobs func(*Scenario)
		specs []string
		// live guards against a vacuous row: the feature under test
		// must actually have fired.
		live func(Result) bool
	}{
		{name: "homogeneous", gen: SyntheticSWF{Seed: 1, Jobs: 1000, Nodes: 4}, specs: sched.Names()},
		{
			name: "hetero-faults",
			gen: SyntheticSWF{
				Seed: 4, Jobs: 250, MeanInterarrival: 25,
				Cluster: hwmodel.HeteroMN3(), CancelRate: 0.08, FailRate: 0.08,
			},
			specs: sched.Names(),
			live:  func(r Result) bool { return tallyOf(r.Records).Failed > 0 && tallyOf(r.Records).Cancelled > 0 },
		},
		{
			name: "node-faults", gen: hetero, specs: sched.Names(),
			knobs: func(s *Scenario) {
				s.NodeFaults = "node1:down@1500..2200+node5:down@2500..4000"
				s.MTBF, s.MTTR, s.MaxRequeues, s.FaultSeed = 4000, 700, 1, 2
			},
			live: func(r Result) bool { return tallyOf(r.Records).Requeues > 0 },
		},
		{
			name: "spillover", gen: hetero, specs: []string{"batch=easy,fat=malleable-shrink"},
			knobs: func(s *Scenario) { s.Spill = true },
			live:  func(r Result) bool { return tallyOf(r.Records).Spilled > 0 },
		},
	}
	for _, c := range cases {
		for _, spec := range c.specs {
			t.Run(c.name+"/"+spec, func(t *testing.T) {
				ps, err := sched.ParsePolicySet(spec)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := SyntheticSWFScenario(c.gen)
				if err != nil {
					t.Fatal(err)
				}
				lazy := Scenario{Nodes: c.gen.Nodes, Cluster: c.gen.Cluster}
				if c.knobs != nil {
					c.knobs(&sc)
					c.knobs(&lazy)
				}
				wantTrace, mat := schedTraced(t, sc, func(s Scenario) Result { return RunSchedSet(s, ps) })
				if c.live != nil && !c.live(mat) {
					t.Fatal("the feature under test never fired; the row is vacuous")
				}
				want := SchedStatsOf(sc, mat)

				gotTrace, str := schedTraced(t, lazy, func(s Scenario) Result {
					return replay(s, c.gen.Source(), slurm.PolicyDROM, useSchedSet(ps))
				})
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("lazy source: decision trace diverges from the slice-backed replay")
				}
				if str.SchedCycles != mat.SchedCycles || str.Steps != mat.Steps || str.Events != mat.Events {
					t.Errorf("lazy source ran %d cycles / %d steps / %d events, slice %d / %d / %d",
						str.SchedCycles, str.Steps, str.Events, mat.SchedCycles, mat.Steps, mat.Events)
				}
				// An aggregated workload keeps neither the distribution
				// nor the widths.
				agg := want
				agg.P95Wait, agg.P95Response, agg.Demand = 0, 0, 0
				if got := SchedStatsOfStream(str); got != agg {
					t.Errorf("lazy source stats diverge:\n  lazy  %+v\n  slice %+v", got, agg)
				}

				// Fork a slice-backed session mid-run: the parent keeps its
				// probe and its trace, both lineages keep the statistics.
				var parent, fork Result
				forkTrace, _ := schedTraced(t, sc, func(s Scenario) Result {
					sess, err := open(new(kit), s, nil, slurm.PolicyDROM, useSchedSet(ps))
					if err != nil {
						return Result{Err: err}
					}
					sess.RunUntil(want.Makespan / 2)
					f, err := sess.Fork()
					if err != nil {
						return Result{Err: err}
					}
					fork = f.Run()
					parent = sess.Run()
					return parent
				})
				if fork.Err != nil {
					t.Fatal(fork.Err)
				}
				if !bytes.Equal(forkTrace, wantTrace) {
					t.Errorf("forked parent: decision trace diverges from the uninterrupted replay")
				}
				if got := SchedStatsOf(sc, parent); got != want {
					t.Errorf("forked parent stats diverge:\n  got  %+v\n  want %+v", got, want)
				}
				if got := SchedStatsOf(sc, fork); got != want {
					t.Errorf("fork stats diverge:\n  got  %+v\n  want %+v", got, want)
				}

				sess, err := open(new(kit), lazy, c.gen.Source(), slurm.PolicyDROM, useSchedSet(ps))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.Fork(); !errors.Is(err, errForkLazy) {
					t.Errorf("Fork on a lazy source: err = %v, want %v", err, errForkLazy)
				}
			})
		}
	}
}

// TestScenarioFieldsHonouredByEverySource: every wiring field of
// Scenario takes effect on a slice-backed run and on a lazy-source
// run alike — there is one wiring site. (The streamed rows failed when
// runStream had its own, shorter, copy of the wiring.) Every exported
// field must be a row here, name the test that pins it, or be data a
// run carries rather than a knob it honours, so a new knob cannot land
// without showing it takes effect.
func TestScenarioFieldsHonouredByEverySource(t *testing.T) {
	// Contended, partitioned and spilling, so the spillover thresholds
	// have something to hold back.
	gen := SyntheticSWF{Seed: 2, Jobs: 120, MeanInterarrival: 20, Cluster: hwmodel.HeteroMN3()}
	nodes := gen.Cluster.TotalNodes()
	sources := []struct {
		name string
		run  func(s Scenario) Result
	}{
		{"slice", func(s Scenario) Result {
			sc, err := SyntheticSWFScenario(gen)
			if err != nil {
				return Result{Err: err}
			}
			s.Subs = sc.Subs
			return RunSchedSet(s, sched.PolicySet{Default: "easy"})
		}},
		{"lazy", func(s Scenario) Result {
			p, _ := sched.New("easy")
			return RunSchedStream(s, gen.Source(), p)
		}},
	}
	// A row names the fields it sets, joined by "+".
	fields := []struct {
		name string
		set  func(t *testing.T, s *Scenario)
		took func(t *testing.T, s Scenario, base, got Result)
	}{
		{"ShmemDir",
			func(t *testing.T, s *Scenario) { s.ShmemDir = t.TempDir() },
			func(t *testing.T, s Scenario, _, _ Result) {
				segs, err := filepath.Glob(filepath.Join(s.ShmemDir, "*.seg"))
				if err != nil || len(segs) != nodes {
					t.Errorf("segment files = %v (err=%v), want %d", segs, err, nodes)
				}
			}},
		{"Trace",
			func(_ *testing.T, s *Scenario) { s.Trace = true },
			func(t *testing.T, _ Scenario, base, got Result) {
				if base.Tracer != nil {
					t.Errorf("untraced run carries a tracer")
				}
				if got.Tracer == nil || len(got.Tracer.Segments()) == 0 {
					t.Errorf("traced run recorded no segments")
				}
			}},
		{"JitterFrac+Seed",
			func(_ *testing.T, s *Scenario) { s.JitterFrac, s.Seed = 0.05, 7 },
			func(t *testing.T, _ Scenario, base, got Result) {
				if base.Records.TotalRunTime() == got.Records.TotalRunTime() {
					t.Errorf("jittered makespan equals the deterministic one (%v)", got.Records.TotalRunTime())
				}
			}},
		{"SpillAfter",
			func(_ *testing.T, s *Scenario) { s.SpillAfter = 1e9 },
			func(t *testing.T, _ Scenario, base, got Result) {
				if tallyOf(base.Records).Spilled == 0 || tallyOf(got.Records).Spilled != 0 {
					t.Errorf("spilled %d jobs with no wait threshold, %d past an unreachable one", tallyOf(base.Records).Spilled, tallyOf(got.Records).Spilled)
				}
			}},
		{"SpillDepth",
			func(_ *testing.T, s *Scenario) { s.SpillDepth = 1 << 20 },
			func(t *testing.T, _ Scenario, base, got Result) {
				if tallyOf(base.Records).Spilled == 0 || tallyOf(got.Records).Spilled != 0 {
					t.Errorf("spilled %d jobs with no depth threshold, %d past an unreachable one", tallyOf(base.Records).Spilled, tallyOf(got.Records).Spilled)
				}
			}},
	}
	// The fields pinned elsewhere, by the test that pins them.
	covered := map[string]string{
		"Nodes":       "TestSliceAndLazySourcesReplayIdentically/homogeneous",
		"Cluster":     "TestSliceAndLazySourcesReplayIdentically/hetero-faults",
		"Spill":       "TestSliceAndLazySourcesReplayIdentically/spillover",
		"NodeFaults":  "TestSliceAndLazySourcesReplayIdentically/node-faults",
		"MTBF":        "TestSliceAndLazySourcesReplayIdentically/node-faults",
		"MTTR":        "TestSliceAndLazySourcesReplayIdentically/node-faults",
		"MaxRequeues": "TestSliceAndLazySourcesReplayIdentically/node-faults",
		"FaultSeed":   "TestSliceAndLazySourcesReplayIdentically/node-faults",
		// No result shows the invariant checks, so the wiring is
		// asserted at the controller below.
		"DebugInvariants": "TestScenarioFieldsHonouredByEverySource",
	}
	data := []string{"Name", "Subs", "Dropped", "Probe"}
	rowed := map[string]bool{}
	for _, f := range fields {
		for _, name := range strings.Split(f.name, "+") {
			rowed[name] = true
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeFor[Scenario]()) {
		if f.IsExported() && !rowed[f.Name] && covered[f.Name] == "" && !slices.Contains(data, f.Name) {
			t.Errorf("Scenario.%s has no wiring row, no covering test and is not data", f.Name)
		}
	}

	for _, src := range sources {
		for _, f := range fields {
			t.Run(src.name+"/"+f.name, func(t *testing.T) {
				s := Scenario{Cluster: gen.Cluster, Spill: true}
				base := src.run(s)
				f.set(t, &s)
				got := src.run(s)
				if base.Err != nil || got.Err != nil {
					t.Fatalf("base err %v, with field err %v", base.Err, got.Err)
				}
				f.took(t, s, base, got)
			})
		}
	}
	for _, src := range []SubmissionSource{nil, gen.Source()} {
		sess, err := open(new(kit), Scenario{Cluster: gen.Cluster, DebugInvariants: true}, src, slurm.PolicyDROM, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sess.Controller().DebugInvariants {
			t.Errorf("%T: DebugInvariants did not reach the controller", src)
		}
	}
}

// closeObserver is an SWF reader whose Close is observable: the
// SWFReaderSource closes it when the source ends.
type closeObserver struct {
	io.Reader
	closed chan struct{}
}

func (r *closeObserver) Close() error {
	close(r.closed)
	return nil
}

// TestReplayClosesSourceOnEarlyError: a replay that fails before its
// first event — invalid fault script, invalid cluster, a jitter
// fraction outside [0, 1), a non-finite or negative fault mean or
// spill threshold — reports an error naming what is wrong and still
// closes the source, or the trace file stays open.
func TestReplayClosesSourceOnEarlyError(t *testing.T) {
	text := FormatSWF(SyntheticSWF{Seed: 1, Jobs: 2000, Nodes: 4}.Generate())
	bad := []struct {
		name string
		scn  Scenario
		want string
	}{
		{"fault script", Scenario{Nodes: 4, NodeFaults: "node0:explode@1..2"}, "explode"},
		{"cluster", Scenario{Cluster: hwmodel.ClusterSpec{Partitions: []hwmodel.Partition{{Name: "empty"}}}}, "empty"},
		// A factor 1 + f·(2u−1) must stay positive, and NaN must not read
		// as jitter off.
		{"jitter fraction 1", Scenario{Nodes: 4, JitterFrac: 1}, "JitterFrac"},
		{"jitter fraction -0.1", Scenario{Nodes: 4, JitterFrac: -0.1}, "JitterFrac"},
		{"jitter fraction NaN", Scenario{Nodes: 4, JitterFrac: math.NaN()}, "JitterFrac"},
		{"jitter fraction +Inf", Scenario{Nodes: 4, JitterFrac: math.Inf(1)}, "JitterFrac"},
		// An infinite mean is an event at +Inf (a panic mid-replay); NaN
		// must not read as the fault model or the threshold off.
		{"MTBF +Inf", Scenario{Nodes: 4, MTBF: math.Inf(1)}, "MTBF"},
		{"MTBF NaN", Scenario{Nodes: 4, MTBF: math.NaN()}, "MTBF"},
		{"MTBF -1", Scenario{Nodes: 4, MTBF: -1}, "MTBF"},
		{"MTTR NaN", Scenario{Nodes: 4, MTBF: 1000, MTTR: math.NaN()}, "MTTR"},
		{"MTTR +Inf", Scenario{Nodes: 4, MTBF: 1000, MTTR: math.Inf(1)}, "MTTR"},
		{"SpillAfter NaN", Scenario{Nodes: 4, Spill: true, SpillAfter: math.NaN()}, "SpillAfter"},
		{"SpillAfter -1", Scenario{Nodes: 4, Spill: true, SpillAfter: -1}, "SpillAfter"},
		// A negative node count is not the default. (A count past
		// MaxNodes is TestNodeCountsValidated's, whose rows build no
		// cluster.)
		{"Nodes -2", Scenario{Nodes: -2}, "Nodes"},
		// A negative depth used to read as no threshold.
		{"SpillDepth -3", Scenario{Nodes: 4, Spill: true, SpillDepth: -3}, "SpillDepth"},
	}
	for _, b := range bad {
		r := &closeObserver{Reader: strings.NewReader(text), closed: make(chan struct{})}
		src := NewSWFReaderSource(r, SWFOptions{Nodes: 4})
		p, _ := sched.New("fcfs")
		if res := RunSchedStream(b.scn, src, p); res.Err == nil {
			t.Fatalf("invalid %s: replay reported no error", b.name)
		} else if !strings.Contains(res.Err.Error(), b.want) {
			t.Errorf("invalid %s: error %q does not name %s", b.name, res.Err, b.want)
		}
		select {
		case <-r.closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("invalid %s: the source was not closed", b.name)
		}
	}
}
