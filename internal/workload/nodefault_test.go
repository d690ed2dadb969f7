package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sched"
)

// nodeFaultGoldenPath pins the decisions AND outcomes of the
// heterogeneous replay with node failure domains active: scripted
// outages and drains plus a seeded MTBF/MTTR fault stream, with the
// requeue cap low enough that some jobs exhaust it. Per job the
// submit, start, end, outcome and partition under every policy, plus
// one per-policy tally line for the fault counters. Regenerate (only
// after an intentional behavior change) with:
//
//	UPDATE_SCHED_GOLDEN=1 go test ./internal/workload -run ReplayNodeFaultGolden
const nodeFaultGoldenPath = "testdata/sched_starts_nodefault_hetero_seed1_600.golden"

// nodeFaultScenario is the hetero fault workload with node failure
// domains on top: two scripted outages on node0 close enough together
// to drive requeued jobs into the retry cap, an outage in the fat
// partition, a long drain, and a seeded background fault stream.
func nodeFaultScenario(t *testing.T) Scenario {
	t.Helper()
	sc := heteroFaultScenario(t)
	sc.NodeFaults = "node0:down@2000..2600+node0:down@2700..3400+node4:down@3000..5000+node2:drain@6000..9000"
	sc.MTBF = 5000
	sc.MTTR = 800
	sc.MaxRequeues = 1
	sc.FaultSeed = 1
	return sc
}

// TestSchedReplayNodeFaultGolden replays the heterogeneous trace with
// node faults injected under all four policies with invariant checking
// on and compares every job's lifecycle against the committed golden.
// The non-vacuousness guards insist each policy actually requeued work
// and that the retry cap was exercised somewhere.
func TestSchedReplayNodeFaultGolden(t *testing.T) {
	sc := nodeFaultScenario(t)
	var got strings.Builder
	capHits := 0
	for _, name := range sched.Names() {
		res := RunSchedSet(sc, sched.PolicySet{Default: name})
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		st := tallyOf(res.Records)
		if st.Requeues == 0 {
			t.Errorf("%s: no job was requeued; the fault golden is vacuous", name)
		}
		capHits += st.NodeFailed
		rs := append(res.Records.Jobs[:0:0], res.Records.Jobs...)
		sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
		for _, j := range rs {
			fmt.Fprintf(&got, "%s %s %s %s %s %s %s\n", name, j.Name,
				strconv.FormatFloat(j.Submit, 'g', -1, 64),
				strconv.FormatFloat(j.Start, 'g', -1, 64),
				strconv.FormatFloat(j.End, 'g', -1, 64),
				j.Outcome, j.Partition)
		}
		fmt.Fprintf(&got, "%s # requeues=%d node_failed=%d lost_work=%s down_node=%s\n",
			name, st.Requeues, st.NodeFailed,
			strconv.FormatFloat(st.LostWorkS, 'g', -1, 64),
			strconv.FormatFloat(st.DownNodeS, 'g', -1, 64))
	}
	if capHits == 0 {
		t.Error("no policy drove a job past the requeue cap; OutcomeNodeFailed is untested")
	}
	checkGolden(t, nodeFaultGoldenPath, "UPDATE_SCHED_GOLDEN", "node-fault replay", got.String())
}
