package djsb

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/slurm"
	"repro/internal/workload"
)

func smallParams(seed int64) Params {
	return Params{
		Seed:             seed,
		Jobs:             12,
		MeanInterarrival: 120,
		Nodes:            2,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallParams(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(smallParams(7))
	if len(a.Subs) != len(b.Subs) || len(a.Subs) != 12 {
		t.Fatalf("subs = %d/%d", len(a.Subs), len(b.Subs))
	}
	for i := range a.Subs {
		if a.Subs[i].At != b.Subs[i].At || a.Subs[i].Job.Name != b.Subs[i].Job.Name ||
			a.Subs[i].Job.Iters != b.Subs[i].Job.Iters {
			t.Fatalf("submission %d differs", i)
		}
	}
	// Different seed differs.
	c, _ := Generate(smallParams(8))
	same := true
	for i := range a.Subs {
		if a.Subs[i].At != c.Subs[i].At {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical arrivals")
	}
}

func TestGenerateArrivalsMonotone(t *testing.T) {
	sc, err := Generate(smallParams(3))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, s := range sc.Subs {
		if s.At < prev {
			t.Fatalf("arrivals not monotone: %v < %v", s.At, prev)
		}
		prev = s.At
		if s.Job.Cfg.Ranks%s.Job.Nodes != 0 {
			t.Errorf("job %s ranks %d not divisible by nodes %d",
				s.Job.Name, s.Job.Cfg.Ranks, s.Job.Nodes)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Params{Jobs: 0, MeanInterarrival: 10}); err == nil {
		t.Error("zero jobs should fail")
	}
	if _, err := Generate(Params{Jobs: 5, MeanInterarrival: 0}); err == nil {
		t.Error("zero interarrival should fail")
	}
	for _, m := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := Generate(Params{Jobs: 5, MeanInterarrival: m}); err == nil || !strings.Contains(err.Error(), "MeanInterarrival") {
			t.Errorf("interarrival %v: error = %v", m, err)
		}
	}
	// A negative node count used to select the default 2 nodes.
	for _, n := range []int{-2, 3000000} {
		if _, err := Generate(Params{Jobs: 5, MeanInterarrival: 10, Nodes: n}); err == nil || !strings.Contains(err.Error(), "Nodes") {
			t.Errorf("nodes %d: error = %v", n, err)
		}
	}
}

func TestRunAllPolicies(t *testing.T) {
	sc, err := Generate(smallParams(11))
	if err != nil {
		t.Fatal(err)
	}
	stats := map[slurm.Policy]metrics.SchedStats{}
	for _, pol := range []slurm.Policy{slurm.PolicySerial, slurm.PolicyDROM, slurm.PolicyOversubscribe} {
		res := workload.Run(sc, pol)
		if res.Err != nil {
			t.Fatalf("%v: %v", pol, res.Err)
		}
		st := workload.SchedStatsOf(sc, res)
		if st.Jobs != 12 {
			t.Fatalf("%v completed %d jobs", pol, st.Jobs)
		}
		if st.Makespan <= 0 || st.MeanSlowdown < 1 {
			t.Fatalf("%v stats insane: %+v", pol, st)
		}
		stats[pol] = st
	}
	// DROM must beat Serial on average response for this mixed stream.
	if stats[slurm.PolicyDROM].MeanResponse >= stats[slurm.PolicySerial].MeanResponse {
		t.Errorf("DROM avg response %.0f >= serial %.0f",
			stats[slurm.PolicyDROM].MeanResponse, stats[slurm.PolicySerial].MeanResponse)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := workload.SchedStatsOf(workload.Scenario{}, workload.Result{})
	if st.Jobs != 0 || st.Makespan != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestDefaultMixGenerates(t *testing.T) {
	sc, err := Generate(Params{Seed: 1, Jobs: 20, MeanInterarrival: 200, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	apps := map[string]bool{}
	for _, s := range sc.Subs {
		name := strings.SplitN(s.Job.Name, "-", 2)[0]
		apps[name] = true
	}
	if len(apps) < 3 {
		t.Errorf("default mix too uniform: %v", apps)
	}
}
