package apps

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cpuset"
	"repro/internal/hwmodel"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testBed bundles the simulation substrate of a 2-node MN3 cluster.
type testBed struct {
	eng    *sim.Engine
	reg    *shmem.Registry
	demand *DemandTable
	sys    map[string]*core.System
}

func newBed() *testBed {
	m := hwmodel.MN3()
	b := &testBed{
		eng:    sim.NewEngine(),
		reg:    shmem.NewRegistry(),
		demand: NewDemandTable(m),
		sys:    map[string]*core.System{},
	}
	for _, n := range []string{"node0", "node1"} {
		b.sys[n] = core.NewSystem(b.reg.MustOpen(n, m.NodeMask(), 0))
	}
	return b
}

func (b *testBed) placements(cfg Config) []Placement {
	nodes := []string{"node0", "node1"}
	ranksPerNode := cfg.Ranks / len(nodes)
	if ranksPerNode == 0 {
		ranksPerNode = 1
	}
	var out []Placement
	for i := 0; i < cfg.Ranks; i++ {
		node := nodes[(i/ranksPerNode)%len(nodes)]
		slot := i % ranksPerNode
		lo := slot * cfg.Threads
		out = append(out, Placement{
			Node:        node,
			Sys:         b.sys[node],
			PID:         b.reg.AllocPID(),
			InitialMask: cpuset.Range(lo, lo+cfg.Threads-1),
		})
	}
	return out
}

func runInstance(t *testing.T, b *testBed, spec Spec, cfg Config, iters int) (float64, *Instance) {
	t.Helper()
	inst, err := NewInstance(spec, cfg, iters, spec.Name, b.eng, b.demand, nil, b.placements(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var end float64 = -1
	inst.OnComplete = func(e float64) { end = e }
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	b.eng.Run()
	if end < 0 {
		t.Fatal("instance never completed")
	}
	return end, inst
}

func TestInstanceRunsToCompletion(t *testing.T) {
	b := newBed()
	end, inst := runInstance(t, b, NEST(), Config{2, 16}, 100)
	if inst.ItersDone() != 100 || !inst.Completed() {
		t.Fatalf("iters=%d completed=%v", inst.ItersDone(), inst.Completed())
	}
	// ~100 iterations plus init; the full-node mask spans both sockets.
	nest := NEST()
	iter := nest.IterTime(RankEnv{Threads: 16, Chunks: 16, BWSlowdown: 1, SpansSockets: true})
	want := NEST().InitSeconds + 100*(iter+NEST().CommSeconds)
	if math.Abs(end-want) > 1 {
		t.Errorf("end = %v, want ~%v", end, want)
	}
	// All PIDs unregistered, demand cleared.
	for _, n := range []string{"node0", "node1"} {
		if b.sys[n].Segment().NumProcs() != 0 {
			t.Errorf("%s still has processes", n)
		}
		if d := b.demand.nodes[n]; d != nil && len(d.entries) != 0 {
			t.Errorf("%s still has demand", n)
		}
	}
}

func TestInstanceConf2UsesTwoRanksPerNode(t *testing.T) {
	b := newBed()
	_, inst := runInstance(t, b, NEST(), Config{4, 8}, 10)
	if len(inst.ranks) != 4 {
		t.Fatalf("ranks = %d", len(inst.ranks))
	}
}

func TestPlacementCountValidation(t *testing.T) {
	b := newBed()
	_, err := NewInstance(NEST(), Config{4, 8}, 10, "x", b.eng, b.demand, nil, b.placements(Config{2, 16}))
	if err == nil {
		t.Fatal("mismatched placements should fail")
	}
}

func TestDoubleStartFails(t *testing.T) {
	b := newBed()
	inst, _ := NewInstance(NEST(), Config{2, 16}, 1, "x", b.eng, b.demand, nil, b.placements(Config{2, 16}))
	if err := inst.Start(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Start(); err == nil {
		t.Fatal("double Start should fail")
	}
}

// TestShrinkAtIterationBoundary: an admin shrinks a running NEST; the
// instance applies the mask at the next iteration boundary and slows
// down by the imbalance factor.
func TestShrinkAtIterationBoundary(t *testing.T) {
	b := newBed()
	spec := NEST()
	spec.InitSeconds = 0
	spec.CommSeconds = 0
	cfg := Config{2, 16}
	inst, _ := NewInstance(spec, cfg, 1000, "nest", b.eng, b.demand, nil, b.placements(cfg))
	var end float64
	inst.OnComplete = func(e float64) { end = e }
	inst.Start()

	// Let ~100 iterations pass, then steal CPU 15 on both nodes.
	iterFull := spec.IterTime(RankEnv{Threads: 16, Chunks: 16, BWSlowdown: 1, SpansSockets: true})
	b.eng.RunUntil(100 * iterFull)
	for _, n := range []string{"node0", "node1"} {
		admin, _ := b.sys[n].Attach()
		pids, _ := admin.PIDList()
		for _, pid := range pids {
			m, _ := admin.ProcessMask(pid, core.FlagNone)
			if code := admin.SetProcessMask(pid, m.AndNot(cpuset.New(15)), core.FlagNone); code.IsError() {
				t.Fatal(code)
			}
		}
	}
	b.eng.Run()

	// Expected: ~100 full-speed iterations + ~900 degraded ones.
	iterSlow := spec.IterTime(RankEnv{Threads: 15, Chunks: 16, BWSlowdown: 1, SpansSockets: true})
	if iterSlow <= iterFull {
		t.Fatal("model sanity: shrunk iteration must be slower")
	}
	want := 100*iterFull + 900*iterSlow
	if math.Abs(end-want) > 3*iterSlow {
		t.Errorf("end = %v, want ~%v", end, want)
	}
	// Masks reflect the shrink.
	if inst.ranks[0].mask.IsSet(15) {
		t.Error("rank 0 still has CPU 15")
	}
}

// TestExpansionRestoresSpeed: shrink then return the CPUs; run time
// recovers.
func TestExpansionRestoresSpeed(t *testing.T) {
	b := newBed()
	spec := NEST()
	spec.InitSeconds = 0
	spec.CommSeconds = 0
	cfg := Config{2, 16}
	inst, _ := NewInstance(spec, cfg, 400, "nest", b.eng, b.demand, nil, b.placements(cfg))
	var end float64
	inst.OnComplete = func(e float64) { end = e }
	inst.Start()

	iterFull := spec.ChunkSeconds / spec.ipcRel(16)
	admin0, _ := b.sys["node0"].Attach()
	pid0 := shmem.PID(0)
	b.eng.RunUntil(50 * iterFull)
	pids, _ := admin0.PIDList()
	pid0 = pids[0]
	admin0.SetProcessMask(pid0, cpuset.Range(0, 7), core.FlagNone)
	b.eng.RunUntil(100 * iterFull)
	admin0.SetProcessMask(pid0, cpuset.Range(0, 15), core.FlagNone)
	b.eng.Run()

	// The job saw a degraded window but finished; final mask is full.
	if !inst.ranks[0].mask.Equal(cpuset.Range(0, 15)) {
		t.Errorf("rank 0 mask = %v", inst.ranks[0].mask)
	}
	if end <= 400*iterFull {
		t.Error("degraded window should cost something")
	}
	if end >= 400*spec.IterTime(RankEnv{Threads: 8, Chunks: 16, BWSlowdown: 1}) {
		t.Error("expansion never took effect")
	}
}

// TestBandwidthContentionCouples: STREAM slows a co-located NEST via
// the demand table even without mask changes.
func TestBandwidthContentionCouples(t *testing.T) {
	b := newBed()
	nest := NEST()
	nest.InitSeconds = 0
	alone := func() float64 {
		bb := newBed()
		end, _ := runInstance(t, bb, nest, Config{2, 14}, 200)
		return end
	}()

	// Same NEST but sharing the nodes with STREAM on CPUs 14-15.
	stream := STREAM()
	streamPl := []Placement{
		{Node: "node0", Sys: b.sys["node0"], PID: b.reg.AllocPID(), InitialMask: cpuset.Range(14, 15)},
		{Node: "node1", Sys: b.sys["node1"], PID: b.reg.AllocPID(), InitialMask: cpuset.Range(14, 15)},
	}
	streamInst, _ := NewInstance(stream, Config{2, 2}, 2000, "stream", b.eng, b.demand, nil, streamPl)
	streamInst.OnComplete = func(float64) {}
	streamInst.Start()

	nestPl := []Placement{
		{Node: "node0", Sys: b.sys["node0"], PID: b.reg.AllocPID(), InitialMask: cpuset.Range(0, 13)},
		{Node: "node1", Sys: b.sys["node1"], PID: b.reg.AllocPID(), InitialMask: cpuset.Range(0, 13)},
	}
	nestInst, _ := NewInstance(nest, Config{2, 14}, 200, "nest", b.eng, b.demand, nil, nestPl)
	var nestEnd float64
	nestInst.OnComplete = func(e float64) { nestEnd = e }
	nestInst.Start()
	b.eng.Run()

	if nestEnd <= alone {
		t.Errorf("contended NEST (%v) should be slower than alone (%v)", nestEnd, alone)
	}
}

// TestTraceRecordsImbalance reproduces the Figure 5 observation: after
// removing one thread, the spread threads stay busy while the others
// show idle bubbles.
func TestTraceRecordsImbalance(t *testing.T) {
	b := newBed()
	spec := NEST()
	spec.InitSeconds = 0
	tr := trace.New()
	cfg := Config{2, 16}
	inst, _ := NewInstance(spec, cfg, 50, "nest", b.eng, b.demand, tr, b.placements(cfg))
	inst.OnComplete = func(float64) {}
	inst.Start()

	admin, _ := b.sys["node0"].Attach()
	b.eng.RunUntil(10 * spec.ChunkSeconds)
	pids, _ := admin.PIDList()
	admin.SetProcessMask(pids[0], cpuset.Range(0, 14), core.FlagNone)
	b.eng.Run()

	lo, hi := tr.Span()
	stats := tr.ThreadUtilization("nest", (lo+hi)/2, hi)
	var removedSeen, busySeen, idleSeen bool
	for _, st := range stats {
		if st.Rank != 0 {
			continue
		}
		switch {
		case st.Thread == 15:
			if st.Utilization < 0.01 {
				removedSeen = true
			}
		case st.Thread < 4:
			if st.Utilization > 0.95 {
				busySeen = true
			}
		default:
			if st.Utilization < 0.9 {
				idleSeen = true
			}
		}
	}
	if !removedSeen || !busySeen || !idleSeen {
		t.Errorf("figure-5 pattern not reproduced: removed=%v busy=%v idle=%v",
			removedSeen, busySeen, idleSeen)
	}
}

// TestResetRunsLikeNewInstance: an instance that ran one job to its end
// (and one that was checkpoint-stopped) and is Reset for a job of
// another shape runs it exactly as a fresh instance does — same end
// time, same iteration and step counts — keeps its rank array, and a
// scrubbed instance pins nothing of the job it served.
func TestResetRunsLikeNewInstance(t *testing.T) {
	first, second := Config{Ranks: 4, Threads: 8}, Config{Ranks: 2, Threads: 16}
	run := func(b *testBed, inst *Instance) (end float64) {
		inst.OnComplete = func(e float64) { end = e }
		if err := inst.Start(); err != nil {
			t.Fatal(err)
		}
		b.eng.Run()
		if !inst.Completed() {
			t.Fatal("instance did not complete")
		}
		return end
	}
	fresh := newBed()
	ref, err := NewInstance(Pils(), second, 40, "second", fresh.eng, fresh.demand, nil, fresh.placements(second))
	if err != nil {
		t.Fatal(err)
	}
	wantEnd := run(fresh, ref)

	for _, stopFirst := range []bool{false, true} {
		b := newBed()
		inst, err := NewInstance(STREAM(), first, 25, "first", b.eng, b.demand, nil, b.placements(first))
		if err != nil {
			t.Fatal(err)
		}
		if stopFirst {
			inst.OnComplete = func(float64) {}
			inst.Start()
			b.eng.RunUntil(5)
			inst.Stop()
		} else {
			run(b, inst)
		}
		ranks := &inst.ranks[0]
		inst.Scrub()
		if inst.JobName != "" || inst.eng != nil || inst.demand != nil || inst.OnComplete != nil ||
			len(inst.ranks) != 0 || inst.Completed() || inst.stopped || inst.tick != 0 {
			t.Fatalf("scrubbed instance still holds state: %+v", inst)
		}
		// A fresh bed's clock starts at 0; this one is at the first job's
		// end, so compare durations.
		t0 := b.eng.Now()
		steps0 := b.eng.Processed() + b.eng.Skipped()
		if err := inst.Reset(Pils(), second, 40, "second", b.eng, b.demand, nil, b.placements(second)); err != nil {
			t.Fatal(err)
		}
		if &inst.ranks[0] != ranks {
			t.Error("Reset did not keep the rank array")
		}
		if end := run(b, inst); math.Abs((end-t0)-wantEnd) > 1e-9 {
			t.Errorf("stopFirst=%v: recycled instance ran %v s, a fresh one %v s", stopFirst, end-t0, wantEnd)
		}
		if got, want := b.eng.Processed()+b.eng.Skipped()-steps0, fresh.eng.Processed()+fresh.eng.Skipped(); got != want {
			t.Errorf("stopFirst=%v: recycled instance took %d steps, a fresh one %d", stopFirst, got, want)
		}
		if inst.ItersDone() != ref.ItersDone() {
			t.Errorf("stopFirst=%v: %d iterations, a fresh instance %d", stopFirst, inst.ItersDone(), ref.ItersDone())
		}
		for _, n := range []string{"node0", "node1"} {
			if b.sys[n].Segment().NumProcs() != 0 || b.demand.Threads(n) != 0 {
				t.Errorf("stopFirst=%v: %s keeps registrations or demand", stopFirst, n)
			}
		}
	}
	if err := ref.Reset(Pils(), second, 40, "bad", fresh.eng, fresh.demand, nil, nil); err == nil {
		t.Error("Reset with no placements for two ranks succeeded")
	}
}
