package workload

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/cpuset"
	"repro/internal/hwmodel"
	"repro/internal/sched"
	"repro/internal/slurm"
)

// kitEntry is one replay of the reuse oracle's corpus.
type kitEntry struct {
	name   string
	sc     Scenario
	policy slurm.Policy
	// stream, when set, makes a fresh lazy source; else sc.Subs replay.
	stream func() SubmissionSource
	// install, when set, makes the scheduling installer, with fresh
	// policies for every replay; else the builtin planner decides.
	install func() func(*slurm.Controller) error
}

// source is the entry's lazy source, or nil: sc.Subs.
func (e kitEntry) source() SubmissionSource {
	if e.stream != nil {
		return e.stream()
	}
	return nil
}

func (e kitEntry) installer() func(*slurm.Controller) error {
	if e.install == nil {
		return nil
	}
	return e.install()
}

// open opens the entry on k.
func (e kitEntry) open(k *kit) (*Session, error) {
	return open(k, e.sc, e.source(), e.policy, e.installer())
}

// replay runs the entry to the end on k, as a one-shot replay does.
func (e kitEntry) replay(k *kit) Result {
	return k.replay(e.sc, e.source(), e.policy, e.installer())
}

// kitCorpus is every run of RunClaims (traced Figure 5, UC2 with its
// baselines, jittered), EASY on a 300-job synthetic trace, a policy
// set on the heterogeneous cluster with spillover, scripted node
// faults and MTBF, and one streamed replay. Every entry checks the
// controller's stores after each cycle (DebugInvariants), so a record
// a reset left indexed fails the run.
func kitCorpus(t *testing.T) []kitEntry {
	t.Helper()
	var corpus []kitEntry
	for _, r := range paperRunsOf(claimKeys()) {
		r.spec.DebugInvariants = true
		sc, err := r.spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		sc, _, policy, _, err := r.spec.cell(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, kitEntry{name: r.key, sc: sc, policy: policy})
	}
	easy, err := SyntheticSWFScenario(SyntheticSWF{Seed: 1, Jobs: 300, Nodes: 4, MeanInterarrival: 25})
	if err != nil {
		t.Fatal(err)
	}
	easy.DebugInvariants = true
	corpus = append(corpus, kitEntry{
		name: "sched/easy", sc: easy, policy: slurm.PolicyDROM,
		install: func() func(*slurm.Controller) error { return useSched(&sched.EASY{}) },
	})
	gen := SyntheticSWF{Seed: 2, Jobs: 300, MeanInterarrival: 20, Cluster: hwmodel.HeteroMN3(), CancelRate: 0.05, FailRate: 0.05}
	hetero, err := SyntheticSWFScenario(gen)
	if err != nil {
		t.Fatal(err)
	}
	hetero.Spill, hetero.DebugInvariants = true, true
	hetero.NodeFaults = "node1:down@1500..2200+node5:down@2500..4000"
	hetero.MTBF, hetero.MTTR, hetero.MaxRequeues, hetero.FaultSeed = 4000, 700, 1, 2
	corpus = append(corpus, kitEntry{
		name: "sched/hetero-spill-faults", sc: hetero, policy: slurm.PolicyDROM,
		install: func() func(*slurm.Controller) error {
			ps, err := sched.ParsePolicySet("batch=easy,fat=malleable-shrink")
			if err != nil {
				t.Fatal(err)
			}
			return useSchedSet(ps)
		},
	})
	stream := SyntheticSWF{Seed: 3, Jobs: 200, Nodes: 4, MeanInterarrival: 30}
	corpus = append(corpus, kitEntry{
		name: "stream/fcfs", sc: Scenario{Nodes: 4, DebugInvariants: true}, policy: slurm.PolicyDROM,
		stream:  func() SubmissionSource { return stream.Source() },
		install: func() func(*slurm.Controller) error { return useSched(&sched.FCFS{}) },
	})
	return corpus
}

// sameResult reports how got differs from want: records (per-partition
// tallies included), counts, error and trace.
func sameResult(got, want Result) error {
	var errs []error
	if !reflect.DeepEqual(got.Records, want.Records) {
		errs = append(errs, fmt.Errorf("records differ: %d jobs %v, want %d jobs %v",
			got.Records.Count(), got.Records.PartitionStats(), want.Records.Count(), want.Records.PartitionStats()))
	}
	if got.Events != want.Events || got.Steps != want.Steps || got.SchedCycles != want.SchedCycles {
		errs = append(errs, fmt.Errorf("%d events, %d steps, %d cycles; want %d, %d, %d",
			got.Events, got.Steps, got.SchedCycles, want.Events, want.Steps, want.SchedCycles))
	}
	if fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
		errs = append(errs, fmt.Errorf("error %v, want %v", got.Err, want.Err))
	}
	if (got.Tracer == nil) != (want.Tracer == nil) {
		errs = append(errs, fmt.Errorf("traced %t, want %t", got.Tracer != nil, want.Tracer != nil))
	} else if got.Tracer != nil && !slices.Equal(got.Tracer.Segments(), want.Tracer.Segments()) {
		errs = append(errs, errors.New("trace segments differ"))
	}
	return errors.Join(errs...)
}

// handouts opens an empty scenario on k and reports what its parts
// hand out first — an event ID, a chain slot, a scancel slot, a PID,
// a process registration — and what they hold: on a reset kit all of
// it must read as on a zero one.
func handouts(t *testing.T, k *kit) string {
	t.Helper()
	sess, err := open(k, Scenario{}, nil, slurm.PolicyDROM, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, cluster := sess.Engine(), sess.Controller().Cluster()
	held := fmt.Sprintf("now %v, %d pending, %d events, %d skipped, jittered %t, %d queued, %d running",
		eng.Now(), eng.Pending(), eng.Processed(), eng.Skipped(), eng.Jittered(),
		sess.Controller().QueueLen(), sess.Controller().RunningLen())
	for _, node := range cluster.Nodes {
		held += fmt.Sprintf(", %s holds %v", node, cluster.System(node).Segment().PIDList())
	}
	id := eng.At(1, func() {})
	var tick int32
	eng.AfterTick(&tick, nil, 1)
	cancel := sess.cancels.Put("x")
	pid := cluster.AllocPID()
	seg := cluster.System(cluster.Nodes[0]).Segment()
	code := seg.Register(pid, cpuset.New(0))
	return fmt.Sprintf("%s; event %d, chain %d, scancel %d, pid %d registered %v as %v",
		held, id, tick, cancel, pid, code, seg.Snapshot())
}

// eulerWalk returns a sequence of 0..n-1 in which every ordered pair
// (a, b) of distinct entries follows each other exactly once: an
// Eulerian circuit of the complete digraph.
func eulerWalk(n int) []int {
	next := make([]int, n)
	stack, walk := []int{0}, []int(nil)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		if next[v] < n-1 {
			stack = append(stack, (v+1+next[v])%n)
			next[v]++
			continue
		}
		walk = append(walk, v)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(walk)
	return walk
}

// TestReplayOnReusedKitMatchesFresh is the oracle of kit reuse: each
// corpus entry replayed on a kit that last ran each other entry — to
// the end, and cut off halfway with jobs live — must equal its replay
// on a zero kit: records (per-partition included), events, steps,
// cycles, error and trace segments. After each replay the kit's first
// handouts must be a zero kit's, and every result handed out stays
// what it was while the kit runs on.
func TestReplayOnReusedKitMatchesFresh(t *testing.T) {
	corpus := kitCorpus(t)
	zero := handouts(t, new(kit))
	fresh := make([]Result, len(corpus))
	for i, e := range corpus {
		fresh[i] = e.replay(new(kit))
		if fresh[i].Err != nil {
			t.Fatalf("%s: %v", e.name, fresh[i].Err)
		}
	}
	k := new(kit)
	var held []Result
	var heldAt []int
	keep := func(res Result, i int) { held, heldAt = append(held, res), append(heldAt, i) }
	walk := eulerWalk(len(corpus))
	for n, i := range walk {
		got := corpus[i].replay(k)
		if n > 0 {
			if err := sameResult(got, fresh[i]); err != nil {
				t.Errorf("%s after %s: %v", corpus[i].name, corpus[walk[n-1]].name, err)
			}
		}
		keep(got, i)
	}
	for i, a := range corpus {
		keep(a.replay(k), i)
		if h := handouts(t, k); h != zero {
			t.Errorf("after %s the kit hands out\n  %s\nwhere a zero kit hands out\n  %s", a.name, h, zero)
		}
	}
	// Cut off halfway: the kit is reset with jobs queued and running,
	// processes registered and events pending.
	half := func(i int) {
		a := corpus[i]
		sess, err := a.open(k)
		if err != nil {
			t.Fatal(err)
		}
		sess.RunUntil(fresh[i].Records.TotalRunTime() / 2)
		if sess.Controller().RunningLen() == 0 {
			t.Fatalf("%s: nothing runs halfway; the cut is vacuous", a.name)
		}
	}
	for i, a := range corpus {
		half(i)
		if h := handouts(t, k); h != zero {
			t.Errorf("after half of %s the kit hands out\n  %s\nwhere a zero kit hands out\n  %s", a.name, h, zero)
		}
		b := (i + 1) % len(corpus)
		half(i)
		got := corpus[b].replay(k)
		if err := sameResult(got, fresh[b]); err != nil {
			t.Errorf("%s after half of %s: %v", corpus[b].name, a.name, err)
		}
		keep(got, b)
	}
	for n, res := range held {
		if err := sameResult(res, fresh[heldAt[n]]); err != nil {
			t.Errorf("%s changed after its kit ran on: %v", corpus[heldAt[n]].name, err)
		}
	}
}

// TestForkOnReusedKitFiresIntoEachLineage is the fork differential of
// a kit's handlers: a session opened on a kit that replayed before —
// jittered, with scancels — and forked after n submissions runs each
// lineage's events in its own session and controller. Running the fork
// to the end moves nothing of the parent (a handler bound to the
// parent would deliver the fork's submissions and scancels into it),
// and both lineages then end as a replay on a zero kit does.
func TestForkOnReusedKitFiresIntoEachLineage(t *testing.T) {
	sc, err := SyntheticSWFScenario(SyntheticSWF{Seed: 4, Jobs: 80, Nodes: 4, MeanInterarrival: 30, CancelRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sc.JitterFrac, sc.Seed, sc.DebugInvariants = 0.02, 3, true
	install := func() func(*slurm.Controller) error { return useSched(&sched.EASY{}) }
	fresh := new(kit).replay(sc, nil, slurm.PolicyDROM, install())
	if fresh.Err != nil {
		t.Fatal(fresh.Err)
	}
	state := func(s *Session) string {
		ctl := s.Controller()
		return fmt.Sprintf("t=%v, %d queued, %d running, %d recorded, %d read, %d events",
			s.Now(), ctl.QueueLen(), ctl.RunningLen(), ctl.Records.Count(), s.src.(*sliceSource).cursor, s.Engine().Processed())
	}
	k := new(kit)
	for _, n := range []int{1, 10, 40} {
		if res := k.replay(sc, nil, slurm.PolicyDROM, install()); res.Err != nil {
			t.Fatal(res.Err)
		}
		sess, err := open(k, sc, nil, slurm.PolicyDROM, install())
		if err != nil {
			t.Fatal(err)
		}
		sess.RunUntil(sc.Subs[n-1].At)
		before := state(sess)
		f, err := sess.Fork()
		if err != nil {
			t.Fatal(err)
		}
		forked := f.Run()
		if after := state(sess); after != before {
			t.Errorf("forked after %d submissions: running the fork moved the parent from %s to %s", n, before, after)
		}
		if err := sameResult(forked, fresh); err != nil {
			t.Errorf("fork after %d submissions: %v", n, err)
		}
		if err := sameResult(sess.Run(), fresh); err != nil {
			t.Errorf("parent forked after %d submissions: %v", n, err)
		}
	}
}

// TestReplayKitsAcrossGoroutines: RunClaims on four goroutines at once,
// sharing the kit pool, returns what a serial run does, and a traced
// result is read while the other goroutines still run. In CI's race
// matrix at -cpu 1,4,8.
func TestReplayKitsAcrossGoroutines(t *testing.T) {
	want := RunClaims()
	got := make([]map[string]Result, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = RunClaims()
			// Read the trace while other goroutines run on the pooled
			// kits: the read must reach into none of them.
			got[g]["fig5/drom"].Tracer.Segments()
		}()
	}
	wg.Wait()
	for g, rs := range got {
		if len(rs) != len(want) {
			t.Fatalf("goroutine %d: %d runs, want %d", g, len(rs), len(want))
		}
		for key, w := range want {
			if err := sameResult(rs[key], w); err != nil {
				t.Errorf("goroutine %d, %s: %v", g, key, err)
			}
		}
	}
}

// paperCategories are the run categories of the paper's evaluation: a
// UC1 pair under both policies, UC2 traced and under a baseline, and a
// jittered UC1 run.
func paperCategories() []kitEntry {
	uc1 := UC1("nest", apps.Table1("nest")[0], "pils", apps.Table1("pils")[0], false)
	jit := uc1
	jit.JitterFrac, jit.Seed = 0.02, 1
	return []kitEntry{
		{name: "uc1-serial", sc: uc1, policy: slurm.PolicySerial},
		{name: "uc1-drom", sc: uc1, policy: slurm.PolicyDROM},
		{name: "uc2-traced", sc: UC2(true), policy: slurm.PolicyDROM},
		{name: "uc2-preempt", sc: UC2(false), policy: slurm.PolicyPreempt},
		{name: "jitter", sc: jit, policy: slurm.PolicyDROM},
	}
}

// warmAllocs is what one warm run of each paper category allocates:
// the records it hands back (their Jobs, sized once from the source,
// and the per-partition buckets), plus the tracer of a traced run and
// the requeued job record and checkpoint of a preemption. Levels
// before the kit kept its handlers, source, layout, slab and seeded
// streams: 13, 13, 23, 15 and 16 (105 under Serial and 127 under DROM
// when every run built its kit). A jittered run seeds nothing, so it
// allocates what uc1-drom does.
var warmAllocs = map[string]float64{"uc1-serial": 2, "uc1-drom": 2, "uc2-traced": 12, "uc2-preempt": 4, "jitter": 2}

// TestWarmReplayAllocs pins what one Run of each paper category, and
// one paper run past building its scenario, allocates once the kit
// pool is warm (warmAllocs).
func TestWarmReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop puts at random")
	}
	got := make(map[string]float64)
	for _, c := range paperCategories() {
		Run(c.sc, c.policy) // warm the pool
		got[c.name] = testing.AllocsPerRun(100, func() { Run(c.sc, c.policy) })
		if want := warmAllocs[c.name]; got[c.name] != want {
			t.Errorf("%s: %v allocs per warm run, want %v", c.name, got[c.name], want)
		}
	}
	if got["jitter"] != got["uc1-drom"] {
		t.Errorf("a warm jittered run allocates %v, its unjittered twin %v", got["jitter"], got["uc1-drom"])
	}
	// A run of RunPaper builds its spec's scenario, then replays it on a
	// pooled kit just as warm.
	for _, r := range paperRunsOf(serialDROM("uc1/nest1+pils1")) {
		r.spec.run()
		build := testing.AllocsPerRun(100, func() { r.spec.Scenario() })
		if got := testing.AllocsPerRun(100, func() { r.spec.run() }) - build; got != 2 {
			t.Errorf("%s: %v allocs per warm run past its scenario's %v, want 2", r.key, got, build)
		}
	}
}

// BenchmarkPaperRuns times one Run of each category of the paper's
// evaluation, as its one-shot replays meet them: one after another in
// one process.
func BenchmarkPaperRuns(b *testing.B) {
	for _, c := range paperCategories() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if res := Run(c.sc, c.policy); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}
