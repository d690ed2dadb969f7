package workload

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// sessionScenario is the seeded synthetic trace of the snapshot
// property tests: contended enough that every policy shrinks,
// backfills and skips.
func sessionScenario(t *testing.T, seed int64) Scenario {
	t.Helper()
	sc, err := SyntheticSWFScenario(SyntheticSWF{
		Seed: seed, Jobs: 200, Nodes: 4, MeanInterarrival: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.DebugInvariants = true
	return sc
}

// TestSessionSnapshotRestoreFixedPoint: a fork that never advances is
// a snapshot, and forking it again restores it. Re-running must be a
// fixed point for metrics.SchedStats — restoring twice from one
// never-advanced fork, and the forked parent itself, all finish with
// the uninterrupted replay's exact statistics. Runs in the CI race
// matrix at -cpu 1,4,8.
func TestSessionSnapshotRestoreFixedPoint(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		sc := sessionScenario(t, seed)
		for _, name := range sched.Names() {
			p, err := sched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			base, err := NewSchedSession(sc, p)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			bres := base.Run()
			if bres.Err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, bres.Err)
			}
			want := SchedStatsOf(sc, bres)

			p2, _ := sched.New(name)
			sess, err := NewSchedSession(sc, p2)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			sess.RunUntil(0.5 * bres.Records.TotalRunTime())
			snap, err := sess.Fork()
			if err != nil {
				t.Fatalf("seed %d %s: snapshot: %v", seed, name, err)
			}
			for round := 0; round < 2; round++ {
				restored, err := snap.Fork()
				if err != nil {
					t.Fatalf("seed %d %s: restore %d: %v", seed, name, round, err)
				}
				rres := restored.Run()
				if rres.Err != nil {
					t.Fatalf("seed %d %s: restore %d: %v", seed, name, round, rres.Err)
				}
				if got := SchedStatsOf(sc, rres); got != want {
					t.Errorf("seed %d %s: restore %d stats diverge:\n  got  %+v\n  want %+v",
						seed, name, round, got, want)
				}
			}
			pres := sess.Run()
			if pres.Err != nil {
				t.Fatalf("seed %d %s: parent: %v", seed, name, pres.Err)
			}
			if got := SchedStatsOf(sc, pres); got != want {
				t.Errorf("seed %d %s: forked parent stats diverge:\n  got  %+v\n  want %+v",
					seed, name, got, want)
			}
		}
	}
}

// TestResultIsASnapshot: a Result taken mid-run is frozen. The session
// running on to the end changes neither its count nor its
// per-partition tallies, and its Jobs shares no free capacity with the
// session's records: neither side's append lands in the other.
func TestResultIsASnapshot(t *testing.T) {
	sc, err := SyntheticSWFScenario(SyntheticSWF{Seed: 1, Jobs: 300, Cluster: hwmodel.HeteroMN3()})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSchedSession(sc, &sched.EASY{})
	if err != nil {
		t.Fatal(err)
	}
	sess.RunUntil(3000)
	mid := sess.Result()
	stats := mid.Records.PartitionStats()
	n, sum := mid.Records.Count(), 0
	for _, p := range stats {
		sum += p.Jobs
	}
	if n == 0 || n == len(sc.Subs) || len(stats) != 2 || sum != n {
		t.Fatalf("vacuous mid-run result: %d of %d records, partitions %+v", n, len(sc.Subs), stats)
	}
	ext := append(mid.Records.Jobs, metrics.JobRecord{Name: "appended"})
	sess.RunUntil(1e9)
	if ext[n].Name != "appended" {
		t.Errorf("the session recorded %s over an append to the snapshot", ext[n].Name)
	}
	if got := mid.Records.PartitionStats(); !slices.Equal(got, stats) {
		t.Errorf("partition tallies moved with the session:\n  got  %+v\n  want %+v", got, stats)
	}
	if got := mid.Records.Count(); got != n {
		t.Errorf("Count moved from %d to %d", n, got)
	}
	end := sess.Result()
	if end.Records.Count() != len(sc.Subs) {
		t.Fatalf("the session recorded %d of %d jobs", end.Records.Count(), len(sc.Subs))
	}
	for _, j := range end.Records.Jobs {
		if j.Name == "appended" {
			t.Fatal("an append to a snapshot's Jobs landed in the session's records")
		}
	}
}

// TestForkedLineagesSubmitIntoTheirOwnSlabs: a session is forked while
// its job slab has spare capacity, and the fork's submissions from then
// on carry names of their own. Both lineages submit — in lockstep over
// the next 1 000 s, then each on its own goroutine to the end — and
// each lineage's records must equal an unforked twin's: the plain
// replay's, and those of a session renamed at the same instant. A fork
// appending into its parent's slab overwrites the parent's jobs with
// its own, and under the race detector the two goroutines write one
// array.
func TestForkedLineagesSubmitIntoTheirOwnSlabs(t *testing.T) {
	sc := sessionScenario(t, 1)
	open := func() *Session {
		t.Helper()
		s, err := NewSchedSession(sc, &sched.EASY{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// rename names every submission s has yet to make anew.
	rename := func(s *Session) {
		src := s.src.(*sliceSource)
		src.subs = slices.Clone(src.subs)
		for i := range src.subs {
			src.subs[i].Job.Name += "'"
		}
		s.next.Job.Name += "'"
	}
	run := func(s *Session) []metrics.JobRecord {
		res := s.Run()
		if res.Err != nil {
			t.Error(res.Err)
		}
		return res.Records.Jobs
	}

	sess := open()
	var at float64
	for _, i := range sess.src.(*sliceSource).order {
		at = sc.Subs[i].At
		sess.RunUntil(at)
		if n := len(sess.jobs); n >= 20 && cap(sess.jobs)-n >= 4 {
			break
		}
	}
	if n := len(sess.jobs); n < 20 || cap(sess.jobs)-n < 4 {
		t.Fatalf("scenario broken: no instant with 4 free places in a slab (%d of %d used at t=%v)", n, cap(sess.jobs), at)
	}
	f, err := sess.Fork()
	if err != nil {
		t.Fatal(err)
	}
	rename(f)
	for now := at + 1; now <= at+1000; now++ {
		sess.RunUntil(now)
		f.RunUntil(now)
	}
	var parent, fork []metrics.JobRecord
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); parent = run(sess) }()
	go func() { defer wg.Done(); fork = run(f) }()
	wg.Wait()

	twin := open()
	twin.RunUntil(at)
	rename(twin)
	for _, c := range []struct {
		lineage   string
		got, want []metrics.JobRecord
	}{{"parent", parent, run(open())}, {"fork", fork, run(twin)}} {
		if len(c.want) != len(sc.Subs) {
			t.Fatalf("%s's twin recorded %d of %d jobs", c.lineage, len(c.want), len(sc.Subs))
		}
		if !slices.Equal(c.got, c.want) {
			i := 0
			for i < min(len(c.got), len(c.want)) && c.got[i] == c.want[i] {
				i++
			}
			t.Errorf("%s: records differ from its unforked twin's from record %d on (%d and %d records)",
				c.lineage, i, len(c.got), len(c.want))
		}
	}
	if slices.Equal(parent, fork) {
		t.Error("scenario broken: the fork's records carry the parent's names")
	}
}
