package cluster_test

import (
	"testing"

	"repro/cluster"
)

func TestUC1ThroughPublicAPI(t *testing.T) {
	sc := cluster.UC1("nest", cluster.Config{Ranks: 2, Threads: 16},
		"pils", cluster.Config{Ranks: 2, Threads: 4}, false)
	serial, drom := cluster.Compare(sc)
	if serial.Err != nil || drom.Err != nil {
		t.Fatalf("errors: %v / %v", serial.Err, drom.Err)
	}
	if g := cluster.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime()); g <= 0 {
		t.Errorf("DROM should improve total run time, gain = %v", g)
	}
}

func TestCustomScenario(t *testing.T) {
	sc := cluster.Scenario{
		Name:  "custom",
		Nodes: 2,
		Subs: []cluster.Submission{
			{Job: cluster.Job{Name: "a", Spec: cluster.Pils(), Cfg: cluster.Config{Ranks: 2, Threads: 16},
				Iters: 100, Nodes: 2, Malleable: true}},
			{At: 20, Job: cluster.Job{Name: "b", Spec: cluster.Pils(), Cfg: cluster.Config{Ranks: 2, Threads: 8},
				Iters: 50, Nodes: 2, Malleable: true}},
		},
	}
	res := cluster.Run(sc, cluster.DROM)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Records.Jobs) != 2 {
		t.Fatalf("jobs recorded = %d", len(res.Records.Jobs))
	}
	b, ok := res.Records.Job("b")
	if !ok || b.WaitTime() > 1e-9 {
		t.Errorf("job b should start immediately under DROM: %+v", b)
	}
}

func TestTable1Reexport(t *testing.T) {
	if len(cluster.Table1("nest")) != 2 || len(cluster.Table1("pils")) != 3 {
		t.Error("Table1 re-export wrong")
	}
}

func TestDJSBThroughPublicAPI(t *testing.T) {
	p := cluster.DJSBParams{Seed: 5, Jobs: 8, MeanInterarrival: 200, Nodes: 2}
	serial, err := cluster.RunDJSB(p, cluster.Serial)
	if err != nil {
		t.Fatal(err)
	}
	drom, err := cluster.RunDJSB(p, cluster.DROM)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Jobs != 8 || drom.Jobs != 8 {
		t.Fatalf("jobs = %d/%d", serial.Jobs, drom.Jobs)
	}
	if drom.AvgResponse >= serial.AvgResponse {
		t.Errorf("DROM avg response %.0f >= serial %.0f", drom.AvgResponse, serial.AvgResponse)
	}
	// Scenario-level control of the stream also works.
	sc, err := cluster.GenerateDJSB(p)
	if err != nil {
		t.Fatal(err)
	}
	res := cluster.Run(sc, cluster.DROM)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := cluster.SummarizeDJSB(res); got.Jobs != 8 {
		t.Errorf("summary jobs = %d", got.Jobs)
	}
}

func TestCustomMachine(t *testing.T) {
	// A fatter node: 4 sockets × 8 cores. A 32-thread-per-rank job is
	// invalid on MN3 but fits here.
	m := cluster.Machine{SocketsPerNode: 4, CoresPerSocket: 8, FreqGHz: 2.0, MemBWGBs: 80, MemGB: 256}
	sc := cluster.Scenario{
		Name:    "fat-node",
		Nodes:   2,
		Cluster: cluster.ClusterSpec{Partitions: []cluster.MachinePartition{{Name: "fat", Nodes: 2, Machine: m}}},
		Subs: []cluster.Submission{{Job: cluster.Job{
			Name: "wide", Spec: cluster.Pils(), Cfg: cluster.Config{Ranks: 2, Threads: 32},
			Iters: 50, Nodes: 2, Malleable: true,
		}}},
	}
	res := cluster.Run(sc, cluster.DROM)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Records.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(res.Records.Jobs))
	}
	// The same job must be rejected on the default MN3 nodes.
	sc.Cluster = cluster.ClusterSpec{}
	res = cluster.Run(sc, cluster.DROM)
	if res.Err == nil {
		t.Fatal("32-thread rank should not fit a 16-core MN3 node")
	}
}

func TestPoliciesDiffer(t *testing.T) {
	sc := cluster.UC2(false)
	serial := cluster.Run(sc, cluster.Serial)
	over := cluster.Run(sc, cluster.Oversubscribe)
	if serial.Err != nil || over.Err != nil {
		t.Fatalf("errors: %v / %v", serial.Err, over.Err)
	}
	if serial.Records.TotalRunTime() == over.Records.TotalRunTime() {
		t.Error("policies should produce different timings")
	}
}
