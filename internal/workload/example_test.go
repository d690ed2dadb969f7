package workload_test

import (
	"fmt"

	"repro/internal/hwmodel"
	"repro/internal/sched"
	"repro/internal/workload"
)

// ExampleRunSchedSet replays a small seeded synthetic SWF trace under
// the DROM-aware malleable-expand policy and prints the headline
// scheduler metrics. The whole pipeline is deterministic: same seed,
// same numbers, on any machine.
func ExampleRunSchedSet() {
	sc, err := workload.SyntheticSWFScenario(workload.SyntheticSWF{
		Seed: 1, Jobs: 30, MeanInterarrival: 30,
	})
	if err != nil {
		panic(err)
	}
	ps, err := sched.ParsePolicySet("malleable-expand")
	if err != nil {
		panic(err)
	}
	res := workload.RunSchedSet(sc, ps)
	if res.Err != nil {
		panic(res.Err)
	}
	st := workload.SchedStatsOf(sc, res)
	fmt.Printf("jobs=%d mean_wait=%.1fs\n", st.Jobs, st.MeanWait)
	// Output:
	// jobs=30 mean_wait=0.0s
}

// ExampleSyntheticSWF_faults generates a fault-annotated trace on the
// bundled heterogeneous preset — two partitions with different node
// shapes, seeded cancellation and failure rates — and replays it:
// cancelled-while-queued jobs leave the queue, failed jobs end early
// and free their CPUs mid-runtime.
func ExampleSyntheticSWF_faults() {
	sc, err := workload.SyntheticSWFScenario(workload.SyntheticSWF{
		Seed: 7, Jobs: 80, MeanInterarrival: 25,
		Cluster:    hwmodel.HeteroMN3(),
		CancelRate: 0.1, FailRate: 0.1,
	})
	if err != nil {
		panic(err)
	}
	ps, err := sched.ParsePolicySet("easy")
	if err != nil {
		panic(err)
	}
	res := workload.RunSchedSet(sc, ps)
	if res.Err != nil {
		panic(res.Err)
	}
	st := workload.SchedStatsOf(sc, res)
	fmt.Printf("jobs=%d failed=%d cancelled=%d partitions=%d\n",
		st.Jobs, st.Failed, st.Cancelled, len(res.Records.PartitionStats()))
	// Output:
	// jobs=80 failed=4 cancelled=10 partitions=2
}

// ExampleParseSpec parses a compact spec of the slurmsim -sweep flag
// and enumerates its cells in the deterministic grid order results are
// aggregated in; each cell's String is its label.
func ExampleParseSpec() {
	s, err := workload.ParseSpec("policies=fcfs,easy;seeds=1-2;jobs=500;cluster=hetero")
	if err != nil {
		panic(err)
	}
	for _, c := range s.Cells() {
		fmt.Println(c)
	}
	// Output:
	// policies=fcfs;seeds=1;jobs=500;cluster=batch:4xmn3,fat:2xfat
	// policies=easy;seeds=1;jobs=500;cluster=batch:4xmn3,fat:2xfat
	// policies=fcfs;seeds=2;jobs=500;cluster=batch:4xmn3,fat:2xfat
	// policies=easy;seeds=2;jobs=500;cluster=batch:4xmn3,fat:2xfat
}

// ExampleSpec_djsb evaluates two builtin controller policies on a
// randomized DJSB-style job stream, one cell each.
func ExampleSpec_djsb() {
	s, _ := workload.ParseSpec("scenario=djsb;policies=serial,drom;jobs=10")
	sc, _ := s.Scenario()
	var makespan []float64
	for _, c := range s.Cells() {
		sess, _ := c.Open(sc, nil)
		makespan = append(makespan, workload.SchedStatsOf(sc, sess.Run()).Makespan)
	}
	fmt.Printf("DROM beats Serial on makespan: %v\n", makespan[1] < makespan[0])
	// Output:
	// DROM beats Serial on makespan: true
}
