package workload

import (
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzSpecRoundTrip: a spec that parses and validates — optionally
// after one more Set of key to value — must render, through String,
// to a text ParseSpec reads back as the same spec. It must also stay
// bounded (the seed cap keeps expansion small) and carry only values
// its library types accept: probabilities in [0, 1], a jitter in
// [0, 1) and durations that are not negative, NaN included. The seed
// corpus is the grid grammar's: every key, the separators, the
// historically interesting rejections (bad ranges, oversized ranges,
// dangling '=', a scenario or Table 1 configuration that does not
// exist, a builtin controller policy on a trace), and a node-fault
// script joined with ';', which the script grammar reads as '+' and
// String renders so.
func FuzzSpecRoundTrip(f *testing.F) {
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
		"scenario=uc1;sim=coreneuron2;ana=stream1;policies=serial,drom,oversubscribe,preempt",
		"scenario=uc1;sim=nest1;ana=pils2;jitter=0.02;seeds=1-3;policies=drom",
		"scenario=uc2;trace=1;policy=preempt",
		"scenario=djsb;jobs=8;ia=150;nodes=2;seed=3",
		"scenario=uc1;ana=pils7",
		"policies=serial;jobs=50",
		"scenario=uc2;policies=easy",
		"scenario=uc2;stream=1",
		"seeds=9999999999999999999",
		"seeds=5-1",
		"seeds=1-999999",
		"jobs=",
		"bogus=1",
		"policies",
		"; ;\t;",
		"",
	} {
		f.Add(seed, "", "")
	}
	f.Add("cluster=hetero;mtbf=5000", "nodefaults", "node0:down@100..400;node5:drain@200..300")
	f.Fuzz(func(t *testing.T, text, key, value string) {
		s, err := ParseSpec(text)
		if err == nil && key != "" {
			err = s.Set(key, value)
		}
		if err != nil || s.Validate() != nil {
			return
		}
		if len(s.Seeds) > maxSeeds {
			t.Fatalf("accepted spec %q expands to %d seeds; the seed cap leaks", text, len(s.Seeds))
		}
		for _, v := range []float64{s.CancelRate, s.FailRate} {
			if v < 0 || v > 1 || v != v {
				t.Fatalf("accepted spec %q carries invalid probability %g", text, v)
			}
		}
		if !(s.Jitter >= 0 && s.Jitter < 1) {
			t.Fatalf("accepted spec %q carries jitter %g outside [0, 1)", text, s.Jitter)
		}
		for _, v := range []float64{s.MeanInterarrival, s.MTBF, s.MTTR, s.SpillAfter} {
			if v < 0 || v != v {
				t.Fatalf("accepted spec %q carries invalid duration %g", text, v)
			}
		}
		back, err := ParseSpec(s.String())
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("spec %q (then %s=%q) renders as %q, which reads back as %+v (%v), want %+v",
				text, key, value, s.String(), back, err, s)
		}
	})
}

// TestTraceFlagsAreSpecKeys: slurmsim's trace flags and schedd's boot
// flags are exactly the key table's, and setting a flag builds the same
// spec as setting its key, including the two flags that read their
// value first.
func TestTraceFlagsAreSpecKeys(t *testing.T) {
	fronts := []struct {
		front FlagFront
		flags []string
	}{
		{SlurmsimFlags, []string{"cancel", "check", "cluster", "fail", "interarrival", "jobs", "mtbf",
			"mttr", "node-faults", "nodes", "requeue", "sched", "seed", "spill", "spill-after",
			"spill-depth", "stream", "swf"}},
		{ScheddFlags, []string{"cluster", "ia", "jobs", "nodes", "sched", "seed"}},
	}
	values := map[string]string{
		"policies": "easy,fcfs", "seeds": "3", "swf": "t.swf", "jobs": "50", "ia": "45",
		"cancel": "0.1", "fail": "0.2", "nodes": "8", "cluster": "hetero", "spill": "true",
		"spillafter": "30", "spilldepth": "2", "nodefaults": "node0:down@1..2;node1:drain@3..4",
		"mtbf": "500", "mttr": "60", "requeue": "-1", "stream": "true", "check": "true",
	}
	for _, fr := range fronts {
		fs := flag.NewFlagSet("", flag.ContinueOnError)
		RegisterFlags(fs, fr.front, nil)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !slices.Equal(got, fr.flags) {
			t.Errorf("front %d registers %v, want %v", fr.front, got, fr.flags)
		}
		for _, k := range specKeys {
			name := k.flags[fr.front]
			if name == "" {
				continue
			}
			cases := [][2][]string{{{"-" + name, values[k.name]}, {k.name + "=" + values[k.name]}}}
			switch name {
			case "sched":
				cases = append(cases, [2][]string{{"-sched", "batch=easy,fat=shrink"}, {"sched=batch=easy,fat=shrink"}})
			case "jobs":
				if fr.front == SlurmsimFlags {
					cases = append(cases, [2][]string{{"-swf", "t.swf", "-jobs", "5"}, {"swf=t.swf", "max=5"}})
				}
			}
			for _, c := range cases {
				fs := flag.NewFlagSet("", flag.ContinueOnError)
				RegisterFlags(fs, fr.front, nil)
				if err := fs.Parse(c[0]); err != nil {
					t.Fatal(err)
				}
				byFlag, err := FlagSpec(fs, fr.front)
				if err != nil {
					t.Fatalf("%v: %v", c[0], err)
				}
				var byKey Spec
				for _, kv := range c[1] {
					k, v, _ := strings.Cut(kv, "=")
					if err := byKey.Set(k, v); err != nil {
						t.Fatalf("%v: %v", c[1], err)
					}
				}
				if !reflect.DeepEqual(byFlag, byKey) || byKey.String() == "" {
					t.Errorf("%v builds %q, %v builds %q", c[0], byFlag, c[1], byKey)
				}
			}
		}
	}
}
