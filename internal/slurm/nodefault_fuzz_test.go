package slurm

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// FuzzParseFaultScript: the deterministic outage-script grammar must
// never panic against a real cluster's node table, and every accepted
// window must be well-formed — a known node, finite times, and
// 0 <= from < to (the scheduling code trusts these invariants when it
// arms the down/drain/repair events). The seed corpus covers both
// separators, both kinds, multi-entry scripts, and the rejection
// paths (unknown nodes, inverted or non-finite spans, missing
// fields). Plain `go test` replays the corpus.
func FuzzParseFaultScript(f *testing.F) {
	for _, seed := range []string{
		"node0:down@100..400",
		"node1:drain@200..300",
		"node0:down@100..400+node1:drain@200..300",
		"node0:down@100..400;node1:drain@200..300",
		"node0:down@2000..2600+node0:down@2700..3400+node1:down@3000..5000",
		"node0:down@0..0.5",
		"node0:down@1e3..2e3",
		"node9:down@100..400",
		"node0:flap@100..400",
		"node0:down@400..100",
		"node0:down@100..100",
		"node0:down@-5..100",
		"node0:down@nan..100",
		"node0:down@100..inf",
		"node0:down@100",
		"node0@100..400",
		"down@100..400",
		"+;+;",
		"",
	} {
		f.Add(seed)
	}
	eng := sim.NewEngine()
	ctl := NewController(mn3Cluster(eng, 2), PolicyDROM)
	nodes := ctl.cluster.Nodes
	f.Fuzz(func(t *testing.T, script string) {
		wins, err := parseFaultScript(ctl, script)
		if err != nil {
			return
		}
		for _, w := range wins {
			if w.node < 0 || w.node >= len(nodes) {
				t.Fatalf("accepted script %q names node index %d outside the %d-node cluster", script, w.node, len(nodes))
			}
			if !(w.from >= 0 && w.from < w.to) || math.IsNaN(w.to) || math.IsInf(w.to, 0) {
				t.Fatalf("accepted script %q yields malformed window %+v", script, w)
			}
		}
	})
}
