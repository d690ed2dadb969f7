package workload

import (
	"slices"
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
