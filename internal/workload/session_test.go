package workload

import (
	"testing"

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
