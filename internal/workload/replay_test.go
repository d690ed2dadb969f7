package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/hwmodel"
	"repro/internal/sched"
)

// goldenPath is the committed record of the per-job start times on the
// seeded 1000-job trace under every policy, captured before the
// scheduler went incremental. The incremental cycle (cached free
// counts, sorted-insert queue, coalesced passes, reused snapshots) is
// a decision-preserving refactor: replays must stay byte-identical.
//
// Regenerate (only after an intentional policy change) with:
//
//	UPDATE_SCHED_GOLDEN=1 go test ./internal/workload -run ReplayDecisionGolden
const goldenPath = "testdata/sched_starts_seed1_1000.golden"

// checkGolden compares got with the golden file at path, or rewrites
// the file when the environment variable env is set. A mismatch is
// reported at its first divergent line, not as a megabyte diff; what
// names the listing.
func checkGolden(t *testing.T, path, env, what, got string) {
	t.Helper()
	if os.Getenv(env) != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl := strings.Split(got, "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s diverged from %s at line %d:\n  got  %q\n  want %q", what, path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s listing length changed: got %d lines, want %d", what, len(gl), len(wl))
}

// replayStarts renders one policy's start times in the golden format.
func replayStarts(t *testing.T, sc Scenario, name string) string {
	t.Helper()
	res := RunSchedSet(sc, sched.PolicySet{Default: name})
	if res.Err != nil {
		t.Fatalf("%s: %v", name, res.Err)
	}
	rs := append(res.Records.Jobs[:0:0], res.Records.Jobs...)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
	var sb strings.Builder
	for _, j := range rs {
		fmt.Fprintf(&sb, "%s %s %s %s\n", name, j.Name,
			strconv.FormatFloat(j.Submit, 'g', -1, 64),
			strconv.FormatFloat(j.Start, 'g', -1, 64))
	}
	return sb.String()
}

// TestSchedReplayDecisionGolden replays the seeded 1000-job synthetic
// SWF trace under all four policies with invariant checking on and
// compares every job's start time against the pre-refactor golden.
func TestSchedReplayDecisionGolden(t *testing.T) {
	sc, err := SyntheticSWFScenario(SyntheticSWF{Seed: 1, Jobs: 1000, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	sc.DebugInvariants = true
	var got strings.Builder
	for _, name := range sched.Names() {
		got.WriteString(replayStarts(t, sc, name))
	}
	checkGolden(t, goldenPath, "UPDATE_SCHED_GOLDEN", "start times", got.String())
}

// heteroGoldenPath pins the decisions AND outcomes of a 2-partition
// heterogeneous replay with cancellations and failures: per job the
// start, end, outcome and partition under every policy. Regenerate
// (only after an intentional behavior change) with:
//
//	UPDATE_SCHED_GOLDEN=1 go test ./internal/workload -run ReplayHeteroFaultGolden
const heteroGoldenPath = "testdata/sched_starts_hetero_seed1_600.golden"

// heteroFaultScenario is the golden's fixed workload: 600 seeded jobs
// over batch(4×MN3)+fat(2×fat) with 6% cancel and 6% fail rates,
// contended arrivals.
func heteroFaultScenario(t *testing.T) Scenario {
	t.Helper()
	sc, err := SyntheticSWFScenario(SyntheticSWF{
		Seed: 1, Jobs: 600, MeanInterarrival: 20,
		Cluster:    hwmodel.HeteroMN3(),
		CancelRate: 0.06, FailRate: 0.06,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.DebugInvariants = true
	return sc
}

// TestSchedReplayHeteroFaultGolden replays the heterogeneous
// fault-annotated trace under all four policies with invariant
// checking on and compares every job's lifecycle against the
// committed golden.
func TestSchedReplayHeteroFaultGolden(t *testing.T) {
	sc := heteroFaultScenario(t)
	var got strings.Builder
	for _, name := range sched.Names() {
		res := RunSchedSet(sc, sched.PolicySet{Default: name})
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		rs := append(res.Records.Jobs[:0:0], res.Records.Jobs...)
		sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
		for _, j := range rs {
			fmt.Fprintf(&got, "%s %s %s %s %s %s %s\n", name, j.Name,
				strconv.FormatFloat(j.Submit, 'g', -1, 64),
				strconv.FormatFloat(j.Start, 'g', -1, 64),
				strconv.FormatFloat(j.End, 'g', -1, 64),
				j.Outcome, j.Partition)
		}
	}
	checkGolden(t, heteroGoldenPath, "UPDATE_SCHED_GOLDEN", "hetero replay", got.String())
}

// spillGoldenPath pins the decisions of the 2-partition fault trace
// with cross-partition spillover enabled: per job the start, end,
// outcome, partition and origin under every single policy plus one
// mixed per-partition policy set. Regenerate (only after an
// intentional behavior change) with:
//
//	UPDATE_SCHED_GOLDEN=1 go test ./internal/workload -run ReplaySpilloverGolden
const spillGoldenPath = "testdata/sched_starts_spill_hetero_seed1_600.golden"

// TestSchedReplaySpilloverGolden replays the heterogeneous
// fault-annotated trace with the spillover pass on, under all four
// policies and a mixed policy set, and compares every job's lifecycle
// (including the origin partition of spilled jobs) against the
// committed golden.
func TestSchedReplaySpilloverGolden(t *testing.T) {
	sc := heteroFaultScenario(t)
	sc.Spill = true
	var got strings.Builder
	specs := append(append([]string{}, sched.Names()...), "batch=easy,fat=malleable-shrink")
	for _, spec := range specs {
		ps, err := sched.ParsePolicySet(spec)
		if err != nil {
			t.Fatal(err)
		}
		res := RunSchedSet(sc, ps)
		if res.Err != nil {
			t.Fatalf("%s: %v", spec, res.Err)
		}
		// The malleable policies shrink-admit almost everything, so
		// their queues rarely back up enough to spill; the rigid
		// policies and the mixed set must spill on this contended trace
		// or the golden is vacuous.
		if rigid := spec == "fcfs" || spec == "easy" || strings.Contains(spec, "="); rigid &&
			tallyOf(res.Records).Spilled == 0 {
			t.Errorf("%s: no job spilled on the contended 2-partition trace", spec)
		}
		rs := append(res.Records.Jobs[:0:0], res.Records.Jobs...)
		sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
		for _, j := range rs {
			origin := j.Origin
			if origin == "" {
				origin = "-"
			}
			fmt.Fprintf(&got, "%s %s %s %s %s %s %s %s\n", spec, j.Name,
				strconv.FormatFloat(j.Submit, 'g', -1, 64),
				strconv.FormatFloat(j.Start, 'g', -1, 64),
				strconv.FormatFloat(j.End, 'g', -1, 64),
				j.Outcome, j.Partition, origin)
		}
	}
	checkGolden(t, spillGoldenPath, "UPDATE_SCHED_GOLDEN", "spillover replay", got.String())
}

// TestSpilloverPropertyAllJobsComplete fuzzes seeded contended
// 2-partition traces through every policy with spillover and the
// controller's invariant checks on: every submission must complete
// and the per-partition spill tallies must balance.
func TestSpilloverPropertyAllJobsComplete(t *testing.T) {
	for seed := int64(2); seed <= 4; seed++ {
		for _, name := range sched.Names() {
			sc, err := SyntheticSWFScenario(SyntheticSWF{
				Seed: seed, Jobs: 200, MeanInterarrival: 15,
				Cluster: hwmodel.HeteroMN3(),
			})
			if err != nil {
				t.Fatal(err)
			}
			sc.DebugInvariants = true
			sc.Spill = true
			res := RunSchedSet(sc, sched.PolicySet{Default: name})
			if res.Err != nil {
				t.Fatalf("seed %d policy %s: %v", seed, name, res.Err)
			}
			if len(res.Records.Jobs) != len(sc.Subs) {
				t.Fatalf("seed %d policy %s: %d of %d jobs completed",
					seed, name, len(res.Records.Jobs), len(sc.Subs))
			}
			var in, out int
			for _, ps := range res.Records.PartitionStats() {
				in += ps.SpilledIn
				out += ps.SpilledOut
			}
			if in != out || in != tallyOf(res.Records).Spilled {
				t.Fatalf("seed %d policy %s: spill tallies in=%d out=%d total=%d",
					seed, name, in, out, tallyOf(res.Records).Spilled)
			}
		}
	}
}

// TestSchedPropertyCapacityInvariant fuzzes seeded random traces
// through every policy with the controller's invariant checks on: the
// node free counts derived from the executed actions must never go
// negative nor exceed CoresPerNode, and the incremental counters must
// keep agreeing with a full shared-memory re-scan. This guards both
// the policies (no over-committing action streams) and the new
// incremental accounting.
func TestSchedPropertyCapacityInvariant(t *testing.T) {
	for seed := int64(2); seed <= 6; seed++ {
		for _, name := range sched.Names() {
			// A tight inter-arrival keeps the cluster contended, so
			// shrinks, backfills and skips all fire.
			sc, err := SyntheticSWFScenario(SyntheticSWF{
				Seed: seed, Jobs: 300, Nodes: 4, MeanInterarrival: 25,
			})
			if err != nil {
				t.Fatal(err)
			}
			sc.DebugInvariants = true
			res := RunSchedSet(sc, sched.PolicySet{Default: name})
			if res.Err != nil {
				t.Fatalf("seed %d policy %s: %v", seed, name, res.Err)
			}
			if len(res.Records.Jobs) != len(sc.Subs) {
				t.Fatalf("seed %d policy %s: %d of %d jobs completed",
					seed, name, len(res.Records.Jobs), len(sc.Subs))
			}
		}
	}
}
