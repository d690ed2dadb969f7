package apps

// Steady iterations are advanced by the engine instead of executed
// (Instance.arm / settle). Every test here runs its scenario twice —
// instances arming, and the never-arm reference that executes every
// iteration — and requires identical observations, compared with ==:
// the armed run produces its times by the same sequence of float adds.
// Each scenario is built so that it fails when one of the two wakes (a
// moved contention factor, a staged mask) or the handle bookkeeping is
// removed, or when a ledger edit that moves neither factor wakes.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpuset"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// skipObs is what a scenario observed; the armed and the reference run
// must agree on all of it.
type skipObs struct {
	Ends  map[string]float64
	Iters map[string]int
	Polls map[string]int64
	Steps int64
}

func newSkipObs() *skipObs {
	return &skipObs{Ends: map[string]float64{}, Iters: map[string]int{}, Polls: map[string]int64{}}
}

// launch builds and starts an instance on CPUs [lo, lo+threads) of both
// nodes, one rank per node, recording its end time under name.
func (b *testBed) launch(t *testing.T, o *skipObs, ref bool, name string, spec Spec, threads, lo, iters int) *Instance {
	t.Helper()
	var pl []Placement
	for _, n := range []string{"node0", "node1"} {
		pl = append(pl, Placement{Node: n, Sys: b.sys[n], PID: b.reg.AllocPID(), InitialMask: cpuset.Range(lo, lo+threads-1)})
	}
	inst, err := NewInstance(spec, Config{Ranks: 2, Threads: threads}, iters, name, b.eng, b.demand, nil, pl)
	if err != nil {
		t.Fatal(err)
	}
	if ref {
		b.demand.NeverArm()
	}
	inst.FinalizeExternally = true // keep the entries, and their poll counts, past the end
	inst.OnComplete = func(end float64) { o.Ends[name] = end }
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	return inst
}

// polls reads rank 0's poll counter from shared memory.
func (b *testBed) polls(t *testing.T, inst *Instance) int64 {
	t.Helper()
	admin, _ := inst.ranks[0].p.Sys.Attach()
	st, code := admin.Stats(inst.ranks[0].p.PID)
	if code.IsError() {
		t.Fatalf("stats of %s: %v", inst.JobName, code)
	}
	return st.Polls
}

// differential runs scenario armed and as the reference and compares.
func differential(t *testing.T, scenario func(t *testing.T, b *testBed, o *skipObs, ref bool)) {
	t.Helper()
	run := func(ref bool) (*testBed, *skipObs) {
		b, o := newBed(), newSkipObs()
		scenario(t, b, o, ref)
		o.Steps = b.eng.Processed() + b.eng.Skipped()
		return b, o
	}
	ab, armed := run(false)
	rb, want := run(true)
	if !reflect.DeepEqual(armed, want) {
		t.Fatalf("armed run diverges from the reference:\narmed     %+v\nreference %+v", armed, want)
	}
	if rb.eng.Skipped() != 0 {
		t.Fatalf("the reference skipped %d steps", rb.eng.Skipped())
	}
	if ab.eng.Skipped() < ab.eng.Processed() {
		t.Fatalf("armed run executed %d steps and skipped only %d", ab.eng.Processed(), ab.eng.Skipped())
	}
}

// TestCoRunnerWakesThroughLedger: a bandwidth-bound co-runner starts on
// NEST's nodes mid-span and later finishes. Both edit the node ledgers
// and nothing else NEST can see — no mask is staged — so NEST's end
// time only lands on the stepped value if the ledger wakes it.
func TestCoRunnerWakesThroughLedger(t *testing.T) {
	nest := NEST()
	nest.InitSeconds = 0
	var alone float64
	differential(t, func(t *testing.T, b *testBed, o *skipObs, ref bool) {
		b.launch(t, o, ref, "nest", nest, 14, 0, 300)
		b.eng.Run()
		alone = o.Ends["nest"]
	})
	differential(t, func(t *testing.T, b *testBed, o *skipObs, ref bool) {
		n := b.launch(t, o, ref, "nest", nest, 14, 0, 300)
		var s *Instance
		b.eng.At(50.3, func() { s = b.launch(t, o, ref, "stream", STREAM(), 2, 14, 150) })
		b.eng.Run()
		o.Iters["nest"], o.Iters["stream"] = n.ItersDone(), s.ItersDone()
		o.Polls["nest"], o.Polls["stream"] = b.polls(t, n), b.polls(t, s)
		if o.Polls["nest"] != 300 || o.Polls["stream"] != 150 {
			t.Errorf("polls nest=%d stream=%d, want one per iteration (300, 150)", o.Polls["nest"], o.Polls["stream"])
		}
		if !(o.Ends["stream"] < o.Ends["nest"]) || !(o.Ends["nest"] > alone) {
			t.Fatalf("scenario broken: stream ends %v, nest %v (alone %v) — the co-run must start, slow NEST and end inside NEST's run",
				o.Ends["stream"], o.Ends["nest"], alone)
		}
	})
}

// TestLedgerWakesOnlyWhenAFactorMoves: a ledger-only edit on NEST's
// nodes mid-span, undone later, that moves only the CPU share, only
// the bandwidth slowdown — once by a hair, a relative 1e-12 — or
// neither. A moved factor must wake NEST, or its end leaves the
// stepped value; an unmoved pair must leave its armed span standing.
func TestLedgerWakesOnlyWhenAFactorMoves(t *testing.T) {
	nest := NEST()
	nest.InitSeconds = 0
	var alone float64
	differential(t, func(t *testing.T, b *testBed, o *skipObs, ref bool) {
		b.launch(t, o, ref, "nest", nest, 14, 0, 300)
		b.eng.Run()
		alone = o.Ends["nest"]
	})
	// NEST's 14 threads demand 14 GB/s of an MN3 node's 41, on 16 cores.
	for _, c := range []struct {
		name    string
		threads int
		bwGBs   float64
		moves   bool
	}{
		{"cpu share only", 6, 0, true},               // 20 threads, 14 GB/s
		{"slowdown only", 1, 30, true},               // 15 threads, 44 GB/s
		{"slowdown by a hair", 1, 27 + 41e-12, true}, // 15 threads, 41 GB/s and 41e-12 more
		{"neither", 2, 10, false},                    // 16 threads, 24 GB/s
	} {
		t.Run(c.name, func(t *testing.T) {
			differential(t, func(t *testing.T, b *testBed, o *skipObs, ref bool) {
				inst := b.launch(t, o, ref, "nest", nest, 14, 0, 300)
				pid := b.reg.AllocPID()
				edit := func(threads int, bwGBs float64) func() {
					return func() {
						credit := inst.Credit()
						for _, node := range []string{"node0", "node1"} {
							b.demand.SetUsage(node, pid, threads, bwGBs)
						}
						if ref {
							return
						}
						if credit == 0 {
							t.Fatalf("scenario broken: NEST is not mid-span at t=%v", b.eng.Now())
						}
						if woke := inst.Credit() == 0; woke != c.moves {
							t.Errorf("edit at t=%v: NEST woken %v, want %v", b.eng.Now(), woke, c.moves)
						}
					}
				}
				b.eng.At(50.3, edit(c.threads, c.bwGBs))
				b.eng.At(150.7, edit(0, 0))
				b.eng.Run()
				o.Iters["nest"], o.Polls["nest"] = inst.ItersDone(), b.polls(t, inst)
				if moved := o.Ends["nest"] != alone; moved != c.moves {
					t.Fatalf("scenario broken: NEST ends at %v, alone at %v", o.Ends["nest"], alone)
				}
			})
		})
	}
}

// TestStagedMaskWakesMidSpan: masks staged from an engine event in the
// middle of a span — a shrink, later the CPUs returned — are applied at
// the iteration boundaries stepping would have used.
func TestStagedMaskWakesMidSpan(t *testing.T) {
	spec := NEST()
	spec.InitSeconds = 0
	differential(t, func(t *testing.T, b *testBed, o *skipObs, ref bool) {
		inst := b.launch(t, o, ref, "nest", spec, 16, 0, 400)
		stage := func(mask cpuset.CPUSet) func() {
			return func() {
				for _, r := range inst.ranks {
					admin, _ := r.p.Sys.Attach()
					if code := admin.SetProcessMask(r.p.PID, mask, core.FlagNone); code.IsError() {
						t.Fatal(code)
					}
				}
				o.Iters[mask.String()] = inst.ItersDone()
			}
		}
		b.eng.At(101.7, stage(cpuset.Range(0, 11)))
		b.eng.At(250, stage(cpuset.Range(0, 15)))
		b.eng.Run()
		o.Polls["nest"] = b.polls(t, inst)
		if !inst.ranks[0].mask.Equal(cpuset.Range(0, 15)) {
			t.Errorf("final mask %v", inst.ranks[0].mask)
		}
	})
}

// TestStopMidSpanReportsSteppedProgress: a checkpoint in the middle of
// a span reports the iteration count stepping would have reached, the
// cancelled occurrence never runs, and Resume continues from the count.
func TestStopMidSpanReportsSteppedProgress(t *testing.T) {
	spec := Pils()
	spec.InitSeconds = 0
	differential(t, func(t *testing.T, b *testBed, o *skipObs, ref bool) {
		inst := b.launch(t, o, ref, "pils", spec, 16, 0, 300)
		b.eng.At(100.5, func() {
			inst.Stop()
			o.Iters["at stop"] = inst.ItersDone()
		})
		b.eng.At(600, func() {
			if err := inst.Resume(b.placements(Config{Ranks: 2, Threads: 16}), 30); err != nil {
				t.Fatal(err)
			}
		})
		b.eng.RunUntil(400)
		if inst.Completed() || inst.ItersDone() != o.Iters["at stop"] {
			t.Fatalf("stopped instance advanced: completed=%v iters %d -> %d", inst.Completed(), o.Iters["at stop"], inst.ItersDone())
		}
		b.eng.Run()
		o.Iters["end"] = inst.ItersDone()
		if !inst.Completed() || o.Iters["at stop"] < 95 || o.Iters["at stop"] > 105 {
			t.Fatalf("completed=%v, %d iterations at the checkpoint", inst.Completed(), o.Iters["at stop"])
		}
	})
}

// forkBed clones the bed and inst onto a forked engine, the forked
// instance taking its chain over.
func (b *testBed) forkBed(t *testing.T, o *skipObs, inst *Instance, name string) (*testBed, *Instance) {
	t.Helper()
	f := &testBed{eng: b.eng.Fork(), reg: b.reg.Fork(), demand: b.demand.Fork(), sys: map[string]*core.System{}}
	for n := range b.sys {
		f.sys[n] = core.NewSystem(f.reg.Get(n))
	}
	fi := inst.Fork(f.eng, f.demand, func(node string) *core.System { return f.sys[node] })
	fi.OnComplete = func(end float64) { o.Ends[name] = end }
	if err := f.eng.CheckFork(); err != nil {
		t.Fatal(err)
	}
	return f, fi
}

// TestForkMidSpanCarriesTheSpan: a fork taken in the middle of a span
// finishes at the parent's time, and each lineage's wakes reach its own
// instance — a mask staged in one fork, a co-runner started in another,
// move that fork alone.
func TestForkMidSpanCarriesTheSpan(t *testing.T) {
	spec := NEST()
	spec.InitSeconds = 0
	differential(t, func(t *testing.T, b *testBed, o *skipObs, ref bool) {
		inst := b.launch(t, o, ref, "parent", spec, 14, 0, 300)
		b.eng.RunUntil(77.7)
		if !ref && inst.Credit() == 0 {
			t.Fatal("scenario broken: the fork is not mid-span")
		}
		f1, twin := b.forkBed(t, o, inst, "twin")
		f2, shrunk := b.forkBed(t, o, inst, "shrunk")
		f2.eng.At(120, func() {
			admin, _ := f2.sys["node1"].Attach()
			if code := admin.SetProcessMask(shrunk.ranks[1].p.PID, cpuset.Range(0, 9), core.FlagNone); code.IsError() {
				t.Fatal(code)
			}
		})
		f3, crowded := b.forkBed(t, o, inst, "crowded")
		f3.eng.At(120, func() { f3.launch(t, o, ref, "stream", STREAM(), 2, 14, 100) })
		for _, l := range []*testBed{b, f1, f2, f3} {
			l.eng.Run()
			o.Steps += l.eng.Processed() + l.eng.Skipped()
		}
		o.Iters["twin"], o.Iters["shrunk"], o.Iters["crowded"] = twin.ItersDone(), shrunk.ItersDone(), crowded.ItersDone()
		o.Polls["twin"], o.Polls["shrunk"] = f1.polls(t, twin), f2.polls(t, shrunk)
		if o.Ends["twin"] != o.Ends["parent"] {
			t.Errorf("undisturbed fork ended at %v, parent at %v", o.Ends["twin"], o.Ends["parent"])
		}
		if !(o.Ends["shrunk"] > o.Ends["parent"]) || !(o.Ends["crowded"] > o.Ends["parent"]) {
			t.Errorf("fork-only changes did not reach the forks: parent %v shrunk %v crowded %v",
				o.Ends["parent"], o.Ends["shrunk"], o.Ends["crowded"])
		}
	})
}

// TestJitteredInstanceArms: a plain instance hands all but the first
// and the last iteration to the engine, and so do a traced one (what it
// records is held to the reference in trace_skip_test.go) and a
// jittered one, whose skipped iterations draw their factors from the
// stream as the engine takes them. A traced and jittered instance never
// arms: a span repeats one period. Each row ends where its NeverArm
// twin on the same seed does — end time, iterations, polls and the
// stream's position.
func TestJitteredInstanceArms(t *testing.T) {
	for _, c := range []struct {
		name    string
		traced  bool
		jitter  bool
		skipped int64
	}{
		{"plain", false, false, 98},
		{"traced", true, false, 98},
		{"jittered", false, true, 98},
		{"traced and jittered", true, true, 0},
	} {
		type outcome struct {
			End   float64
			Iters int
			Polls int64
			Next  float64 // the stream's next value
		}
		run := func(ref bool) (outcome, int64) {
			b := newBed()
			if ref {
				b.demand.NeverArm()
			}
			var tr *trace.Tracer
			if c.traced {
				tr = trace.New()
			}
			cfg := Config{Ranks: 2, Threads: 16}
			inst, err := NewInstance(Pils(), cfg, 100, "p", b.eng, b.demand, tr, b.placements(cfg))
			if err != nil {
				t.Fatal(err)
			}
			rnd := sim.NewRand(1)
			if c.jitter {
				b.eng.SetJitter(rnd, 0.02)
			}
			var o outcome
			inst.FinalizeExternally = true // keep the poll counts past the end
			inst.OnComplete = func(end float64) { o.End = end }
			if err := inst.Start(); err != nil {
				t.Fatal(err)
			}
			b.eng.Run()
			if !inst.Completed() {
				t.Fatalf("%s: not completed", c.name)
			}
			o.Iters, o.Polls, o.Next = inst.ItersDone(), b.polls(t, inst), rnd.Float64()
			return o, b.eng.Skipped()
		}
		got, skipped := run(false)
		want, _ := run(true)
		if got != want || got.Iters != 100 || skipped != c.skipped {
			t.Errorf("%s: %+v, skipped %d; NeverArm twin %+v; want 100 iterations and %d skipped",
				c.name, got, skipped, want, c.skipped)
		}
	}
}

// TestForkedLedgerForgetsParentOwners: a forked demand table must not
// wake the parent's instances — lineages run on different goroutines.
func TestForkedLedgerForgetsParentOwners(t *testing.T) {
	b, o := newBed(), newSkipObs()
	spec := Pils()
	spec.InitSeconds = 0
	inst := b.launch(t, o, false, "p", spec, 16, 0, 100)
	b.eng.RunUntil(10.5)
	credit := inst.Credit()
	if credit == 0 {
		t.Fatal("scenario broken: not mid-span")
	}
	f := b.demand.Fork()
	f.SetUsage("node0", shmem.PID(424242), 4, 10)
	f.Remove("node0", inst.ranks[0].p.PID)
	if inst.Credit() != credit {
		t.Fatalf("editing the forked table woke the parent's instance (credit %d -> %d)", credit, inst.Credit())
	}
	b.demand.SetUsage("node0", shmem.PID(424242), 4, 10)
	if inst.Credit() != 0 {
		t.Fatal("editing the live table did not wake the instance")
	}
}
