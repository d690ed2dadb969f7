package sweep

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// FuzzParseGrid: a grid spec the -sweep flag accepts must never panic
// the parser, must stay bounded — the seed cap keeps expansion small —
// and must label each of its cells with a spec that reads back as that
// very cell, so a result's trace label is enough to rerun it alone.
// The seed corpus covers every key of the grammar plus the separators
// and the historically interesting rejections (bad ranges, oversized
// ranges, dangling '='); FuzzSpecRoundTrip in internal/workload starts
// from the same corpus. Plain `go test` replays the corpus.
func FuzzParseGrid(f *testing.F) {
	for _, seed := range []string{
		"policies=all;seeds=1-4;jobs=5000",
		"policy=fcfs,easy;seed=7",
		"sched=batch=easy,fat=malleable-shrink;seeds=1",
		"seeds=1,3,5-8;jobs=100;nodes=8",
		"cluster=batch:4xmn3,fat:2xfat;policies=all",
		"cluster=hetero",
		"cancel=0.06;fail=0.06;spill=1;spillafter=300;spilldepth=2",
		"nodefaults=node0:down@100..400+node1:drain@200..300;mtbf=5000;mttr=800;requeue=2",
		"ia=60;stream=1;check=true",
		"swf=trace.swf;max=100",
		"seeds=9999999999999999999",
		"seeds=5-1",
		"seeds=1-999999",
		"jobs=",
		"bogus=1",
		"policies",
		"; ;\t;",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		g, err := parseGrid(spec)
		if err != nil {
			return
		}
		cells := g.Cells()
		if len(cells) > 100000 {
			t.Fatalf("accepted grid %q expands to %d cells; the seed cap leaks", spec, len(cells))
		}
		for _, c := range cells[:min(len(cells), 50)] {
			back, err := workload.ParseSpec(c.String())
			if err != nil || !reflect.DeepEqual(back, c) {
				t.Fatalf("cell %q of grid %q reads back as %+v (%v), want %+v", c, spec, back, err, c)
			}
		}
	})
}
