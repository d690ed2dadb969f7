package apps

// A traced instance arms too: the engine takes its steady iterations
// (as a solo chain) and the tracer gets each span as one record, which
// it expands when read. Every test here runs its scenario twice with a
// tracer attached — instances arming, and the never-arming reference
// (DemandTable.NeverArm) that executes and records every iteration —
// and requires the two tracers to hold the same segments, element by
// element in the same order, at every read on the way and at the end:
// no tolerance, no sorting.

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/cpuset"
	"repro/internal/trace"
)

// tracedWorld is one of the two runs of a traced differential.
type tracedWorld struct {
	b     *testBed
	tr    *trace.Tracer
	reads [][]trace.Segment
	insts []*Instance
}

// start launches a traced instance with one rank on each of nodes, on
// CPUs [lo, lo+threads) there.
func (w *tracedWorld) start(t *testing.T, name string, spec Spec, nodes []string, lo, threads, iters int) *Instance {
	t.Helper()
	inst, err := NewInstance(spec, Config{Ranks: len(nodes), Threads: threads}, iters, name,
		w.b.eng, w.b.demand, w.tr, w.placements(nodes, lo, threads))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	w.insts = append(w.insts, inst)
	return inst
}

func (w *tracedWorld) placements(nodes []string, lo, threads int) []Placement {
	var pl []Placement
	for _, n := range nodes {
		pl = append(pl, Placement{Node: n, Sys: w.b.sys[n], PID: w.b.reg.AllocPID(), InitialMask: cpuset.Range(lo, lo+threads-1)})
	}
	return pl
}

// stage stages mask for every rank of inst, as a resource manager does.
func (w *tracedWorld) stage(t *testing.T, inst *Instance, mask cpuset.CPUSet) {
	t.Helper()
	for _, r := range inst.ranks {
		admin, _ := r.p.Sys.Attach()
		if code := admin.SetProcessMask(r.p.PID, mask, core.FlagNone); code.IsError() {
			t.Fatal(code)
		}
	}
}

// read keeps a copy of what the tracer holds right now.
func (w *tracedWorld) read() {
	w.reads = append(w.reads, slices.Clone(w.tr.Segments()))
}

// tracedDifferential runs scenario armed and as the reference, both
// traced, and holds the armed run's segments — every read, and the
// final state — and its step count to the reference's.
func tracedDifferential(t *testing.T, scenario func(t *testing.T, w *tracedWorld)) (armed, ref *tracedWorld) {
	t.Helper()
	run := func(never bool) *tracedWorld {
		w := &tracedWorld{b: newBed(), tr: trace.New()}
		if never {
			w.b.demand.NeverArm()
		}
		scenario(t, w)
		w.read()
		return w
	}
	armed, ref = run(false), run(true)
	if len(armed.reads) != len(ref.reads) {
		t.Fatalf("%d reads armed, %d in the reference", len(armed.reads), len(ref.reads))
	}
	for i := range ref.reads {
		got, want := armed.reads[i], ref.reads[i]
		for k := 0; k < len(got) && k < len(want); k++ {
			if got[k] != want[k] {
				t.Fatalf("read %d, segment %d of %d:\narmed     %+v\nreference %+v", i, k, len(want), got[k], want[k])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("read %d: %d segments armed, %d in the reference", i, len(got), len(want))
		}
	}
	as, rs := armed.b.eng.Processed()+armed.b.eng.Skipped(), ref.b.eng.Processed()+ref.b.eng.Skipped()
	if as != rs || ref.b.eng.Skipped() != 0 {
		t.Fatalf("steps: armed %d, reference %d (of which %d skipped)", as, rs, ref.b.eng.Skipped())
	}
	for i, inst := range ref.insts {
		if got, want := armed.insts[i].ItersDone(), inst.ItersDone(); got != want {
			t.Fatalf("%s: %d iterations armed, %d in the reference", inst.JobName, got, want)
		}
	}
	return armed, ref
}

// gridSpec is an application whose undisturbed iteration lasts exactly
// period seconds, so that instances on the same binary grid tie.
func gridSpec(name string, period float64) Spec {
	return Spec{Name: name, Class: Malleable, ChunkSeconds: period, IPCBase: 1, RefThreads: 16, Spread: 1}
}

var node0, node1, bothNodes = []string{"node0"}, []string{"node1"}, []string{"node0", "node1"}

// TestTracedInstanceArmsAndRecordsTheSame: one row per way a span can
// meet something else. Each scenario must actually skip.
func TestTracedInstanceArmsAndRecordsTheSame(t *testing.T) {
	nest := NEST()
	nest.InitSeconds = 0
	for _, c := range []struct {
		name     string
		scenario func(t *testing.T, w *tracedWorld)
	}{
		{"alone", func(t *testing.T, w *tracedWorld) {
			w.start(t, "nest", nest, bothNodes, 0, 16, 200)
			w.b.eng.Run()
		}},
		{"two identical jobs on two nodes tie every round", func(t *testing.T, w *tracedWorld) {
			w.start(t, "a", gridSpec("a", 0.5), node0, 0, 4, 120)
			w.start(t, "b", gridSpec("b", 0.5), node1, 0, 4, 120)
			w.b.eng.Run()
		}},
		{"periods 0.5 and 0.25 tie every other round", func(t *testing.T, w *tracedWorld) {
			w.start(t, "half", gridSpec("half", 0.5), node0, 0, 4, 100)
			w.start(t, "quarter", gridSpec("quarter", 0.25), node1, 0, 4, 230)
			w.b.eng.Run()
		}},
		{"three jobs, one started late on the grid", func(t *testing.T, w *tracedWorld) {
			w.start(t, "a", gridSpec("a", 0.5), node0, 0, 4, 150)
			w.start(t, "b", gridSpec("b", 0.25), node1, 0, 4, 200)
			w.b.eng.At(10.25, func() { w.start(t, "c", gridSpec("c", 0.75), node1, 8, 4, 60) })
			w.b.eng.Run()
		}},
		{"mask staged mid-span", func(t *testing.T, w *tracedWorld) {
			inst := w.start(t, "nest", nest, bothNodes, 0, 16, 300)
			w.b.eng.At(101.7, func() { w.stage(t, inst, cpuset.Range(0, 11)) })
			w.b.eng.At(250, func() { w.stage(t, inst, cpuset.Range(0, 15)) })
			w.b.eng.Run()
		}},
		{"ledger change mid-span from a job starting on the same node", func(t *testing.T, w *tracedWorld) {
			w.start(t, "nest", nest, bothNodes, 0, 14, 300)
			w.b.eng.At(50.3, func() { w.start(t, "stream", STREAM(), bothNodes, 14, 2, 150) })
			w.b.eng.Run()
		}},
		{"stop and resume mid-span", func(t *testing.T, w *tracedWorld) {
			inst := w.start(t, "pils", Pils(), bothNodes, 0, 16, 300)
			w.start(t, "other", gridSpec("other", 0.5), node0, 0, 2, 400)
			w.b.eng.At(100.5, func() { inst.Stop() })
			w.b.eng.At(160, func() {
				if err := inst.Resume(w.placements(bothNodes, 0, 16), 30); err != nil {
					t.Fatal(err)
				}
			})
			w.b.eng.Run()
		}},
		{"span cut by RunUntil, inside it and on an iteration boundary", func(t *testing.T, w *tracedWorld) {
			w.start(t, "a", gridSpec("a", 0.5), node0, 0, 4, 200)
			w.start(t, "b", gridSpec("b", 0.75), node1, 0, 4, 100)
			for _, bound := range []float64{3.1, 12, 12, 40.5, 41.3, 75} {
				w.b.eng.RunUntil(bound)
				w.read()
			}
			w.b.eng.Run()
		}},
		{"a booking from outside at a RunUntil bound that is an iteration boundary", func(t *testing.T, w *tracedWorld) {
			w.start(t, "a", gridSpec("a", 0.5), node0, 0, 4, 100)
			w.b.eng.RunUntil(20)
			// Zero initialisation: c's first iteration is recorded at 20,
			// after a's iteration there.
			w.start(t, "c", gridSpec("c", 0.25), node1, 0, 4, 100)
			w.b.eng.Run()
		}},
		{"busy fraction that meets the iteration's end on some iterations only", func(t *testing.T, w *tracedWorld) {
			// Past 2^51 a float64 resolves half seconds: a thread busy for
			// 0.8 of a one-second iteration ends its Run segment on the
			// iteration's end and has no Idle segment; before, it has one.
			// (0.8 s a chunk, times the imbalance 1.25, is the second.)
			slow := Spec{Name: "slow", Class: Simulator, ChunkSeconds: 0.8, IPCBase: 1, RefThreads: 16, Spread: 4}
			w.b.eng.RunUntil(1<<51 - 40)
			inst := w.start(t, "slow", slow, node0, 0, 16, 100)
			w.stage(t, inst, cpuset.Range(0, 14)) // 15 threads for 16 chunks: busy 1 or 0.8
			w.b.eng.Run()
			idle, before, after := 0, 0, 0
			for _, s := range w.tr.Segments() {
				if s.Thread != 14 {
					continue
				}
				switch {
				case s.State == trace.Idle:
					idle++
				case s.T0 < 1<<51:
					before++
				default:
					after++
				}
			}
			if idle == 0 || after == 0 || idle > before {
				t.Fatalf("scenario broken: thread 14 has %d idle segments for %d iterations before 2^51 and %d after", idle, before, after)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			armed, _ := tracedDifferential(t, c.scenario)
			if armed.b.eng.Skipped() == 0 {
				t.Fatal("the armed run skipped nothing")
			}
			t.Logf("%d segments, %d steps of which %d executed", len(armed.reads[len(armed.reads)-1]),
				armed.b.eng.Processed()+armed.b.eng.Skipped(), armed.b.eng.Processed())
		})
	}
}

// TestOutsideBookingAtATakenInstant documents the one case that is out
// of model (see trace.Tracer): the engine is driven with Step, which
// may return on an iteration it took by itself, and work that records
// at that very instant is then booked from outside. The reference
// records the iteration first; the armed run weaves it after what was
// executed at its instant. Same segments, two neighbours swapped.
func TestOutsideBookingAtATakenInstant(t *testing.T) {
	run := func(never bool) []trace.Segment {
		w := &tracedWorld{b: newBed(), tr: trace.New()}
		if never {
			w.b.demand.NeverArm()
		}
		// 42 iterations: one executed at 0, forty steady ones — the last
		// of them at 20 — and the final one at 20.5.
		w.start(t, "a", gridSpec("a", 0.5), node0, 0, 4, 42)
		for w.b.eng.Now() < 20 {
			w.b.eng.Step() // armed: the second step takes the whole span
		}
		at := w.b.eng.Now()
		if at != 20 || (w.b.eng.Skipped() == 0) == !never {
			t.Fatalf("scenario broken: stepped to %v with %d steps skipped", at, w.b.eng.Skipped())
		}
		w.start(t, "c", gridSpec("c", 0.25), node1, 0, 4, 10)
		w.b.eng.Run()
		segs := slices.Clone(w.tr.Segments())
		first := slices.IndexFunc(segs, func(s trace.Segment) bool { return s.Job == "c" })
		if segs[first].T0 != at {
			t.Fatalf("c's first iteration starts at %v, booked at %v", segs[first].T0, at)
		}
		return segs
	}
	armed, ref := run(false), run(true)
	if slices.Equal(armed, ref) {
		t.Fatal("the orders agree: the case is in model now — say so in trace.Tracer's comment and move this scenario into the table above")
	}
	order := func(x, y trace.Segment) int {
		return cmp.Or(cmp.Compare(x.T0, y.T0), cmp.Compare(x.Job, y.Job), cmp.Compare(x.Thread, y.Thread), cmp.Compare(x.State, y.State))
	}
	slices.SortFunc(armed, order)
	slices.SortFunc(ref, order)
	if !slices.Equal(armed, ref) {
		t.Fatal("more than the order differs")
	}
}

// FuzzTracedSkipDifferential decodes its input into a small traced
// scenario — up to four jobs on one or both nodes, iterating on a
// shared binary grid (so they tie), off it, or with a static partition
// (so a shrink leaves threads idle for part of each iteration); masks
// staged and restored, checkpoints and resumes, all from engine events
// on the same grid; RunUntil bounds on it with the tracer read at each —
// and runs it armed and on the never-arming reference.
//
// Plain `go test` replays the seeds below and the committed corpus
// under testdata/fuzz/FuzzTracedSkipDifferential.
func FuzzTracedSkipDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 40, 0, 1, 1, 80, 0, 2, 2, 30, 4, 3, 0, 1, 20, 2, 1, 2, 40, 1, 0, 0, 60, 3, 8, 16, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		type jobPlan struct {
			spec      Spec
			nodes     []string
			iters     int
			at        float64
			ops       [][3]int
			inst      *Instance
			stoppedAt float64
		}
		nest := NEST()
		nest.InitSeconds, nest.ChunkSeconds, nest.Spread = 0, 0.5, 1 // a shrink leaves threads idle
		specs := []Spec{gridSpec("", 0.5), gridSpec("", 0.25), gridSpec("", 0.75), nest, Pils()}
		var plans []*jobPlan
		for i, n := 0, 1+next()%4; i < n; i++ {
			p := &jobPlan{spec: specs[next()%len(specs)], nodes: [][]string{node0, node1, bothNodes}[next()%3], iters: 2 + next()%120}
			p.spec.Name = fmt.Sprintf("j%d", i)
			p.at = float64(next()%32) / 4
			plans = append(plans, p)
		}
		for i, n := 0, next()%8; i < n; i++ {
			p := plans[next()%len(plans)]
			p.ops = append(p.ops, [3]int{next() % 4, next(), next()})
		}
		var bounds []float64
		for i, n, at := 0, next()%6, 0.0; i < n; i++ {
			at += float64(next()) / 4
			bounds = append(bounds, at)
		}
		armed, _ := tracedDifferential(t, func(t *testing.T, w *tracedWorld) {
			for i, p := range plans {
				lo := 4 * i
				w.b.eng.At(p.at, func() { p.inst = w.start(t, p.spec.Name, p.spec, p.nodes, lo, 4, p.iters) })
				for _, op := range p.ops {
					at := p.at + float64(op[1])/4
					switch op[0] {
					case 1: // shrink inside the slot
						w.b.eng.At(at, func() {
							if !p.inst.Completed() && !p.inst.stopped {
								w.stage(t, p.inst, cpuset.Range(lo, lo+op[2]%3))
							}
						})
					case 2: // give the slot back
						w.b.eng.At(at, func() {
							if !p.inst.Completed() && !p.inst.stopped {
								w.stage(t, p.inst, cpuset.Range(lo, lo+3))
							}
						})
					case 3: // checkpoint, resume a while later
						w.b.eng.At(at, func() { p.inst.Stop() })
						w.b.eng.At(at+float64(op[2]%16)/4, func() {
							if p.inst.stopped {
								if err := p.inst.Resume(w.placements(p.nodes, lo, 4), float64(op[2]%3)/4); err != nil {
									t.Fatal(err)
								}
							}
						})
					}
				}
			}
			for _, bound := range bounds {
				w.b.eng.RunUntil(bound)
				w.read()
			}
			w.b.eng.Run()
		})
		t.Logf("%d jobs, %d reads, %d segments, %d steps of which %d executed", len(plans), len(bounds), len(armed.reads[len(bounds)]),
			armed.b.eng.Processed()+armed.b.eng.Skipped(), armed.b.eng.Processed())
	})
}
