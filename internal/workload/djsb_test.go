package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestDJSBDeterministic: the stream is a function of its seed, and its
// defaults are 20 jobs on 2 nodes.
func TestDJSBDeterministic(t *testing.T) {
	a, _ := Spec{Paper: "djsb", Seeds: []int64{7}}.Scenario()
	b, _ := Spec{Paper: "djsb", Seeds: []int64{7}}.Scenario()
	c, _ := Spec{Paper: "djsb", Seeds: []int64{8}}.Scenario()
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a.Subs, c.Subs) {
		t.Error("the stream is not a function of its seed")
	}
	if len(a.Subs) != 20 || a.Nodes != 2 {
		t.Errorf("default stream: %d jobs on %d nodes, want 20 on 2", len(a.Subs), a.Nodes)
	}
}

// TestDJSBArrivalsMonotone: arrivals come in order, and every job spans
// the nodes with ranks divisible by them.
func TestDJSBArrivalsMonotone(t *testing.T) {
	sc, _ := Spec{Paper: "djsb", Seeds: []int64{3}, Jobs: 12, MeanInterarrival: 120}.Scenario()
	if len(sc.Subs) != 12 {
		t.Fatalf("stream has %d jobs, want 12", len(sc.Subs))
	}
	for i, s := range sc.Subs {
		if i > 0 && s.At < sc.Subs[i-1].At || s.Job.Nodes != 2 || s.Job.Cfg.Ranks%2 != 0 {
			t.Errorf("job %s at %v: %d ranks on %d nodes", s.Job.Name, s.At, s.Job.Cfg.Ranks, s.Job.Nodes)
		}
	}
}

// TestDJSBDefaultMix: the default 20 jobs draw at least three of the
// four apps.
func TestDJSBDefaultMix(t *testing.T) {
	sc, _ := Spec{Paper: "djsb", Seeds: []int64{7}}.Scenario()
	apps := map[string]bool{}
	for _, s := range sc.Subs {
		apps[s.Job.Spec.Name] = true
	}
	if len(apps) < 3 {
		t.Errorf("default mix too uniform: %v", apps)
	}
}

// TestDJSBValidation: the stream's parameters get the spec's verdict,
// each error naming its field.
func TestDJSBValidation(t *testing.T) {
	for _, tc := range []struct {
		s    Spec
		want string
	}{
		{Spec{Jobs: -1}, "Jobs"},
		{Spec{MeanInterarrival: math.NaN()}, "MeanInterarrival"},
		{Spec{MeanInterarrival: math.Inf(1)}, "MeanInterarrival"},
		// A negative node count used to select the default 2 nodes.
		{Spec{Nodes: -2}, "Nodes"},
		{Spec{Nodes: 3000000}, "Nodes"},
	} {
		tc.s.Paper = "djsb"
		if _, err := tc.s.Scenario(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want one naming %s", tc.s, err, tc.want)
		}
	}
}

func TestSchedStatsOfEmpty(t *testing.T) {
	if st := SchedStatsOf(Scenario{}, Result{}); st.Jobs != 0 || st.Makespan != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}
