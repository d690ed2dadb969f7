package workload

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/slurm"
)

// TestParseSWFFaultFields: the parser surfaces the wait, status and
// partition columns it used to drop on the floor.
func TestParseSWFFaultFields(t *testing.T) {
	trace := `; header
1 0 5 30 4 -1 -1 4 60 -1 1 -1 -1 -1 -1 2 -1 -1
2 10 120 -1 8 -1 -1 8 300 -1 5 -1 -1 -1 -1 1 -1 -1
3 20 -1 40 16 -1 -1 16 90 -1 0 -1 -1 -1 -1 -1 -1 -1
`
	jobs, err := ParseSWF(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(jobs))
	}
	if jobs[0].Wait != 5 || jobs[0].Partition != 2 || jobs[0].Status != SWFCompleted {
		t.Errorf("record 1 = %+v", jobs[0])
	}
	if jobs[1].Status != SWFCancelled || jobs[1].Wait != 120 || jobs[1].Run != -1 {
		t.Errorf("record 2 = %+v", jobs[1])
	}
	if jobs[2].Status != SWFFailed || jobs[2].Partition != -1 {
		t.Errorf("record 3 = %+v", jobs[2])
	}
}

// TestMapClassifiesDrops: unmappable records are counted per status
// class instead of silently skipped.
func TestMapClassifiesDrops(t *testing.T) {
	jobs := []SWFJob{
		// Too wide for a 2-node cluster: completed, failed, cancelled.
		{ID: 1, Submit: 0, Run: 30, Procs: 16 * 3, ReqTime: 60, Status: SWFCompleted, Wait: -1, Partition: -1},
		{ID: 2, Submit: 1, Run: 30, Procs: 16 * 3, ReqTime: 60, Status: SWFFailed, Wait: -1, Partition: -1},
		{ID: 3, Submit: 2, Run: 30, Procs: 16 * 3, ReqTime: 60, Status: SWFCancelled, Wait: -1, Partition: -1},
		// Unknown runtime, not cancelled: unusable.
		{ID: 4, Submit: 3, Run: -1, Procs: 4, ReqTime: 60, Status: SWFCompleted, Wait: -1, Partition: -1},
		// One mappable record so the scenario is non-empty.
		{ID: 5, Submit: 4, Run: 30, Procs: 4, ReqTime: 60, Status: SWFCompleted, Wait: -1, Partition: -1},
	}
	sc, skipped, err := SWFScenario(jobs, SWFOptions{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 4 {
		t.Fatalf("skipped = %d, want 4", skipped)
	}
	want := metrics.DropStats{Unusable: 2, Cancelled: 1, Failed: 1}
	if sc.Dropped != want {
		t.Fatalf("Dropped = %+v, want %+v", sc.Dropped, want)
	}
	res := RunSchedSet(sc, sched.PolicySet{Default: "fcfs"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Records.Dropped != want {
		t.Fatalf("result Dropped = %+v, want %+v", res.Records.Dropped, want)
	}
}

// tallyOf reads a workload's outcome and fault counters.
func tallyOf(w metrics.Workload) metrics.SchedStats { return metrics.NewSchedStats(w, nil, 0) }

// failScenario builds a 1-node scenario: a long job annotated to fail
// early, with a second full-node job queued behind it.
func failScenario() Scenario {
	spec := swfSpec()
	return Scenario{
		Name:  "fault/early-free",
		Nodes: 1,
		Subs: []Submission{
			{At: 0, Job: slurm.Job{
				Name: "victim", Spec: spec, Cfg: apps.Config{Ranks: 1, Threads: 16},
				Iters: 1000, Nodes: 1, Walltime: 1000, Malleable: true,
				FailAfter: 50,
			}},
			{At: 1, Job: slurm.Job{
				Name: "waiter", Spec: spec, Cfg: apps.Config{Ranks: 1, Threads: 16},
				Iters: 10, Nodes: 1, Walltime: 20, Malleable: true,
			}},
		},
	}
}

// TestFailedJobFreesCPUsEarly: a job that dies mid-runtime releases
// its CPUs at the failure instant, not at its walltime, and the
// waiting job starts immediately after.
func TestFailedJobFreesCPUsEarly(t *testing.T) {
	sc := failScenario()
	sc.DebugInvariants = true
	res := RunSchedSet(sc, sched.PolicySet{Default: "fcfs"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	victim, ok := res.Records.Job("victim")
	if !ok {
		t.Fatal("no victim record")
	}
	if victim.Outcome != metrics.OutcomeFailed {
		t.Fatalf("victim outcome = %v, want failed", victim.Outcome)
	}
	// Launch at t=0, task start after the 1 s launch latency, failure
	// 50 s later.
	if got := victim.End; got != 51 {
		t.Fatalf("victim ended at %v, want 51", got)
	}
	waiter, ok := res.Records.Job("waiter")
	if !ok {
		t.Fatal("no waiter record")
	}
	if waiter.Start != 51 {
		t.Fatalf("waiter started at %v, want 51 (the failure instant)", waiter.Start)
	}
	if st := tallyOf(res.Records); st.Failed != 1 || st.Cancelled != 0 {
		t.Fatalf("failed/cancelled = %d/%d, want 1/0", st.Failed, st.Cancelled)
	}
}

// TestCancelledQueuedJobLeavesQueue: a cancellation while queued
// removes the job without it ever starting, recorded as cancelled at
// the scancel instant.
func TestCancelledQueuedJobLeavesQueue(t *testing.T) {
	spec := swfSpec()
	sc := Scenario{
		Name:  "fault/queued-cancel",
		Nodes: 1,
		Subs: []Submission{
			{At: 0, Job: slurm.Job{
				Name: "holder", Spec: spec, Cfg: apps.Config{Ranks: 1, Threads: 16},
				Iters: 200, Nodes: 1, Walltime: 300, Malleable: false,
			}},
			{At: 5, Cancel: true, CancelAt: 30, Job: slurm.Job{
				Name: "undecided", Spec: spec, Cfg: apps.Config{Ranks: 1, Threads: 16},
				Iters: 100, Nodes: 1, Walltime: 100, Malleable: false,
			}},
		},
	}
	sc.DebugInvariants = true
	res := RunSchedSet(sc, sched.PolicySet{Default: "fcfs"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	j, ok := res.Records.Job("undecided")
	if !ok {
		t.Fatal("cancelled job has no record")
	}
	if j.Outcome != metrics.OutcomeCancelled {
		t.Fatalf("outcome = %v, want cancelled", j.Outcome)
	}
	if j.Start != 30 || j.End != 30 {
		t.Fatalf("cancelled record start/end = %v/%v, want 30/30 (never ran)", j.Start, j.End)
	}
}

// TestCancelAtTimeZero: a cancelled-while-queued record submitted at
// t=0 with unknown wait must still be cancelled — CancelAt == 0 is a
// legitimate cancellation instant, not "no cancel".
func TestCancelAtTimeZero(t *testing.T) {
	jobs := []SWFJob{
		{ID: 1, Submit: 0, Wait: -1, Run: -1, Procs: 4, ReqTime: 600, Status: SWFCancelled, Partition: -1},
	}
	sc, _, err := SWFScenario(jobs, SWFOptions{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Subs[0].Cancel || sc.Subs[0].CancelAt != 0 {
		t.Fatalf("submission = %+v, want Cancel at t=0", sc.Subs[0])
	}
	res := RunSchedSet(sc, sched.PolicySet{Default: "fcfs"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	j, ok := res.Records.Job("j00001")
	if !ok {
		t.Fatal("no record")
	}
	if j.Outcome != metrics.OutcomeCancelled || j.End != 0 {
		t.Fatalf("record = %+v, want cancelled at t=0", j)
	}
}

// TestHeteroPartitionRouting: jobs land inside their partition only,
// and the per-partition split accounts for every job.
func TestHeteroPartitionRouting(t *testing.T) {
	sc, err := SyntheticSWFScenario(SyntheticSWF{
		Seed: 3, Jobs: 200, MeanInterarrival: 30,
		Cluster:    hwmodel.HeteroMN3(),
		CancelRate: 0.05, FailRate: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	sc.DebugInvariants = true
	var launches []obs.Event
	sc.Probe = obs.Func(func(ev obs.Event) {
		if ev.Kind == obs.KindProtocol && ev.Step == obs.StepLaunchRequest {
			launches = append(launches, ev)
		}
	})
	for _, sub := range sc.Subs {
		if sub.Job.Partition != "batch" && sub.Job.Partition != "fat" {
			t.Fatalf("job %s targets partition %q", sub.Job.Name, sub.Job.Partition)
		}
	}
	res := RunSchedSet(sc, sched.PolicySet{Default: "malleable-expand"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Records.Count(); got != len(sc.Subs) {
		t.Fatalf("recorded %d of %d jobs", got, len(sc.Subs))
	}
	// The batch partition owns node0..node3, fat owns node4..node5:
	// every protocol event of a job must stay inside its partition.
	partOf := map[string]string{}
	for _, sub := range sc.Subs {
		partOf[sub.Job.Name] = sub.Job.Partition
	}
	batchNodes := map[string]bool{"node0": true, "node1": true, "node2": true, "node3": true}
	for _, rec := range res.Records.Jobs {
		want := partOf[rec.Name]
		if rec.Partition != want {
			t.Fatalf("job %s recorded in partition %q, targeted %q", rec.Name, rec.Partition, want)
		}
	}
	if len(launches) < len(sc.Subs) {
		t.Fatalf("%d launch_request events for %d jobs", len(launches), len(sc.Subs))
	}
	for _, ev := range launches {
		want := partOf[ev.Job]
		if want == "" {
			t.Fatalf("launch_request names unknown job %q", ev.Job)
		}
		if (want == "batch") != batchNodes[ev.Placement] {
			t.Fatalf("job %s (partition %s) launched on %s", ev.Job, want, ev.Placement)
		}
	}
	stats := res.Records.PartitionStats()
	if len(stats) != 2 {
		t.Fatalf("partition stats = %v, want 2 partitions", stats)
	}
	if stats[0].Jobs+stats[1].Jobs != res.Records.Count() {
		t.Fatalf("partition split %d+%d != %d jobs", stats[0].Jobs, stats[1].Jobs, res.Records.Count())
	}
}
