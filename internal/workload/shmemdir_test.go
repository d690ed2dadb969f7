package workload

// File-backed sessions: Scenario.ShmemDir roots the cluster's DROM
// segments in real files so external processes can attach, the run
// itself completes identically in virtual time, and forks snapshot to
// private in-memory copies that never touch the live files.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
)

func TestSessionShmemDir(t *testing.T) {
	dir := t.TempDir()
	sc, err := SyntheticSWFScenario(SyntheticSWF{
		Seed: 3, Jobs: 30, Nodes: 2, MeanInterarrival: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.ShmemDir = dir
	p, _ := sched.New("easy")
	sess, err := NewSchedSession(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	// The segments exist on disk from construction.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 2 {
		t.Fatalf("segment files = %v (err=%v), want 2", segs, err)
	}

	// Mid-run fork: the what-if lineage must not perturb the files.
	sess.RunUntil(2000)
	stamp := func() []int64 {
		var out []int64
		for _, f := range segs {
			st, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st.ModTime().UnixNano(), st.Size())
		}
		return out
	}
	before := stamp()
	fork, err := sess.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fres := fork.Run()
	if fres.Err != nil {
		t.Fatalf("fork run: %v", fres.Err)
	}
	after := stamp()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("fork perturbed live segment files: %v -> %v", before, after)
		}
	}

	// The live lineage still completes, with the same schedule a pure
	// in-memory run produces (the backend must not affect decisions).
	res := sess.Run()
	if res.Err != nil {
		t.Fatalf("live run: %v", res.Err)
	}
	sc2 := sc
	sc2.ShmemDir = ""
	mem := RunSchedSet(sc2, sched.PolicySet{Default: "easy"})
	if mem.Err != nil {
		t.Fatal(mem.Err)
	}
	if a, b := SchedStatsOf(sc, res), SchedStatsOf(sc2, mem); a != b {
		t.Fatalf("file-backed stats diverge from in-memory:\n file %+v\n mem  %+v", a, b)
	}
}
