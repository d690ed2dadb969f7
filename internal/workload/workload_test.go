package workload

import (
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/slurm"
)

// uc1Pair runs the paper's UC1 cell under key (uc1Key) under Serial
// and DROM.
func uc1Pair(t *testing.T, key string) (Result, Result) {
	t.Helper()
	rs := RunPaper(serialDROM(key)...)
	serial, drom := rs[key+"/serial"], rs[key+"/drom"]
	if serial.Err != nil || drom.Err != nil {
		t.Fatalf("%s: %v / %v", key, serial.Err, drom.Err)
	}
	return serial, drom
}

// TestUC1HeadlineClaims verifies the §6.1 claims for the NEST+Pils
// workloads: DROM improves total run time; the analytics response time
// collapses (paper: up to −96%); the simulator's penalty stays small
// (paper: 0–4.2%); average response improves 37–48%.
func TestUC1HeadlineClaims(t *testing.T) {
	for si := range apps.Table1("nest") {
		for ai := 1; ai <= 2; ai++ { // Conf. 2 and 3
			key := uc1Key("nest", si, "pils", ai)
			serial, drom := uc1Pair(t, key)

			if g := metrics.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime()); g <= 0 || g > 0.25 {
				t.Errorf("%s: total run time gain = %.1f%%, want (0,25]", key, 100*g)
			}
			ps, _ := serial.Records.Job("pils")
			pd, _ := drom.Records.Job("pils")
			if g := metrics.Gain(ps.ResponseTime(), pd.ResponseTime()); g < 0.75 {
				t.Errorf("%s: pils response gain = %.1f%%, want >= 75%%", key, 100*g)
			}
			ns, _ := serial.Records.Job("nest")
			nd, _ := drom.Records.Job("nest")
			if pen := -metrics.Gain(ns.ResponseTime(), nd.ResponseTime()); pen < 0 || pen > 0.10 {
				t.Errorf("%s: nest response penalty = %.1f%%, want [0,10]", key, 100*pen)
			}
			if g := metrics.Gain(serial.Records.AvgResponseTime(), drom.Records.AvgResponseTime()); g < 0.30 || g > 0.55 {
				t.Errorf("%s: avg response gain = %.1f%%, want ~37-48%%", key, 100*g)
			}
		}
	}
}

// TestUC1StreamClaims verifies the NEST+STREAM shape: total run time
// always better (paper: avg 1.84%, up to 3.5%), STREAM response −92%.
func TestUC1StreamClaims(t *testing.T) {
	for si := range apps.Table1("nest") {
		key := uc1Key("nest", si, "stream", 0)
		serial, drom := uc1Pair(t, key)
		if g := metrics.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime()); g <= 0 {
			t.Errorf("%s: DROM total not better (%.1f%%)", key, 100*g)
		}
		ss, _ := serial.Records.Job("stream")
		sd, _ := drom.Records.Job("stream")
		if g := metrics.Gain(ss.ResponseTime(), sd.ResponseTime()); g < 0.80 {
			t.Errorf("%s: stream response gain = %.1f%%, want >= 80%%", key, 100*g)
		}
		ns, _ := serial.Records.Job("nest")
		nd, _ := drom.Records.Job("nest")
		if pen := -metrics.Gain(ns.ResponseTime(), nd.ResponseTime()); pen > 0.08 {
			t.Errorf("%s: nest penalty = %.1f%%, paper worst case 6.7%%", key, 100*pen)
		}
	}
}

// TestUC1CoreNeuronClaims mirrors Figures 9-12: same shapes with
// CoreNeuron, and CoreNeuron+STREAM is the best total-run-time case
// (paper: up to 8%).
func TestUC1CoreNeuronClaims(t *testing.T) {
	serial, drom := uc1Pair(t, "uc1/coreneuron1+stream1")
	if g := metrics.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime()); g <= 0 || g > 0.15 {
		t.Errorf("coreneuron+stream total gain = %.1f%%, want (0,15]", 100*g)
	}
	serial, drom = uc1Pair(t, "uc1/coreneuron2+pils3")
	if g := metrics.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime()); g <= 0 {
		t.Errorf("coreneuron+pils total gain = %.1f%%", 100*g)
	}
	if g := metrics.Gain(serial.Records.AvgResponseTime(), drom.Records.AvgResponseTime()); g < 0.30 {
		t.Errorf("coreneuron avg response gain = %.1f%%, paper avg 46.5%%", 100*g)
	}
}

// TestUC2HighPrioWaitsUnderSerial: without DROM the high-priority
// job waits for NEST to finish (the claims table pins its immediate
// start under DROM, uc2-hp-start).
func TestUC2HighPrioWaitsUnderSerial(t *testing.T) {
	serial := Run(UC2(false), slurm.PolicySerial)
	if serial.Err != nil {
		t.Fatal(serial.Err)
	}
	cn, ok := serial.Records.Job("coreneuron")
	if !ok || cn.WaitTime() < 1000 {
		t.Errorf("high-priority job should wait long under Serial, waited %v", cn.WaitTime())
	}
}

// TestPoliciesDiffer: UC2 under Oversubscribe does not reproduce the
// Serial timings.
func TestPoliciesDiffer(t *testing.T) {
	rs := RunPaper("uc2/serial", "uc2/oversubscribe")
	serial, over := rs["uc2/serial"], rs["uc2/oversubscribe"]
	if serial.Err != nil || over.Err != nil || serial.Records.TotalRunTime() == over.Records.TotalRunTime() {
		t.Errorf("policies should produce different timings: %v / %v, errors %v / %v",
			serial.Records.TotalRunTime(), over.Records.TotalRunTime(), serial.Err, over.Err)
	}
}

// TestCustomMachine: a scenario on a custom node shape. A
// 32-thread-per-rank job is invalid on MN3 but fits a 4 × 8-core node.
func TestCustomMachine(t *testing.T) {
	m := hwmodel.Machine{SocketsPerNode: 4, CoresPerSocket: 8, FreqGHz: 2.0, MemBWGBs: 80}
	sc := Scenario{
		Name:    "fat-node",
		Nodes:   2,
		Cluster: hwmodel.ClusterSpec{Partitions: []hwmodel.Partition{{Name: "fat", Nodes: 2, Machine: m}}},
		Subs: []Submission{{Job: slurm.Job{
			Name: "wide", Spec: apps.Pils(), Cfg: apps.Config{Ranks: 2, Threads: 32},
			Iters: 50, Nodes: 2, Malleable: true,
		}}},
	}
	res := Run(sc, slurm.PolicyDROM)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Records.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(res.Records.Jobs))
	}
	// The same job must be rejected on the default MN3 nodes.
	sc.Cluster = hwmodel.ClusterSpec{}
	res = Run(sc, slurm.PolicyDROM)
	if res.Err == nil {
		t.Fatal("32-thread rank should not fit a 16-core MN3 node")
	}
}

// TestFigure5Imbalance asserts the Figure 5 pattern quantitatively.
func TestFigure5Imbalance(t *testing.T) {
	figs := buildRow(t, "fig5")
	if len(figs) != 1 || len(figs[0].Series) != 1 {
		t.Fatal("figure 5 needs one series")
	}
	pts := figs[0].Series[0].Points
	if len(pts) != 16 {
		t.Fatalf("want 16 thread rows, got %d", len(pts))
	}
	// Threads 0-3 fully busy, 4-14 partially idle, 15 removed.
	for i, p := range pts {
		switch {
		case i < 4:
			if p.Y < 0.95 {
				t.Errorf("thread %d utilization %v, want ~1", i, p.Y)
			}
		case i < 15:
			if p.Y < 0.5 || p.Y > 0.95 {
				t.Errorf("thread %d utilization %v, want partial", i, p.Y)
			}
		default:
			if p.Y > 0.05 {
				t.Errorf("removed thread utilization %v", p.Y)
			}
		}
	}
}

// TestUC2IPCComparable mirrors Figure 14: IPC under DROM is comparable
// to Serial, slightly higher for the shrunk applications.
func TestUC2IPCComparable(t *testing.T) {
	fig := buildRow(t, "fig14")[0]
	for i, job := range []string{"nest", "coreneuron"} {
		s, d := fig.Series[0].Points[i].Y, fig.Series[1].Points[i].Y
		if s <= 0 || d <= 0 {
			t.Fatalf("%s IPC missing: %v/%v", job, s, d)
		}
		rel := d / s
		if rel < 0.98 || rel > 1.25 {
			t.Errorf("%s IPC ratio DROM/Serial = %.3f, want comparable-or-higher", job, rel)
		}
	}
}

// TestConf2BeatsConf1: the paper's Table-1 observation — "increasing
// IPC switching from Conf. 1 to Conf. 2 ... due to a different data
// access pattern and better data locality" — makes the 4x8
// configuration finish sooner than 2x16 for both simulators.
func TestConf2BeatsConf1(t *testing.T) {
	for _, sim := range []string{"nest", "coreneuron"} {
		run := func(cfg apps.Config) float64 {
			sc := Scenario{
				Name:  "conf-cmp",
				Nodes: 2,
				Subs: []Submission{{Job: slurm.Job{
					Name: sim, Spec: simSpec(sim), Cfg: cfg, Nodes: 2, Malleable: true,
				}}},
			}
			res := Run(sc, slurm.PolicySerial)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			return res.Records.TotalRunTime()
		}
		c1 := run(apps.Config{Ranks: 2, Threads: 16})
		c2 := run(apps.Config{Ranks: 4, Threads: 8})
		if c2 >= c1 {
			t.Errorf("%s: Conf. 2 (%v) should beat Conf. 1 (%v)", sim, c2, c1)
		}
	}
}

// TestJitterVariabilityMatchesPaper: with seeded run-to-run jitter,
// repeated runs of the same workload vary with a coefficient of
// variation in the paper's reported range ("a maximum coefficient of
// variation of 3.4% in run time measurements") — and different seeds
// actually differ.
func TestJitterVariabilityMatchesPaper(t *testing.T) {
	s := Spec{Paper: "uc1", Policies: []string{"drom"}, Jitter: 0.03, Seeds: []int64{1, 2, 3, 4, 5, 1}}
	var totals []float64
	for _, c := range s.Cells() {
		res := c.run()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		totals = append(totals, res.Records.TotalRunTime())
	}
	if slices.Min(totals) == slices.Max(totals) {
		t.Fatal("seeds produced identical totals; jitter inactive")
	}
	if cv := cv(totals[:5])[0]; cv <= 0 || cv > 3.4 {
		t.Errorf("coefficient of variation = %.2f%%, want (0, 3.4]", cv)
	}
	// Determinism: same seed, same result.
	if totals[5] != totals[0] {
		t.Error("same seed must reproduce the same total")
	}
}

// TestFullyMalleableNestImproves is the paper's stated hypothesis: "A
// fully malleable NEST version that doesn't partition data according
// to initial number of threads would improve this result."
func TestFullyMalleableNestImproves(t *testing.T) {
	// Pils Conf. 2 steals one CPU per node: the static partition pays
	// the full 1.25x imbalance while a malleable partition would pay
	// only 16/15.
	mk := func(fully bool) float64 {
		sc, _ := Spec{Paper: "uc1"}.Scenario() // nest1+pils2
		spec := apps.NEST()
		spec.FullyMalleable = fully
		sc.Subs[0].Job.Spec = spec
		res := Run(sc, slurm.PolicyDROM)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Records.TotalRunTime()
	}
	static := mk(false)
	fully := mk(true)
	if fully >= static {
		t.Errorf("fully malleable NEST (%v) should beat static partition (%v)", fully, static)
	}
}
