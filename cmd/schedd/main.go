// Command schedd serves one live simulated cluster over HTTP: submit
// jobs, cancel them, flip their malleability, advance virtual time,
// and ask what-if questions ("when would job X start under policy Y?")
// that are answered by forking the whole simulation and running the
// fork forward — without perturbing the live lineage. What-ifs on an
// unchanged state share one fork per policy, which runs only as far as
// the latest start asked about; every mutation starts afresh.
//
// Examples:
//
//	schedd -addr :8080 -sched easy -jobs 200
//	schedd -cluster hetero -sched malleable-shrink -ia 20
//
//	curl -s localhost:8080/state
//	curl -s -X POST localhost:8080/submit -d '{"name":"j1","app":"pils","ranks":4,"threads":4,"nodes":2,"walltime":600}'
//	curl -s 'localhost:8080/whatif?job=j1&policy=fcfs'
//	curl -s -X POST localhost:8080/advance -d '{"until":5000}'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"

	"repro/cluster"
	"repro/internal/sched"
	"repro/internal/schedd"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	policy := flag.String("sched", "fcfs", "scheduling policy of the live lineage: fcfs, easy, malleable-shrink or malleable-expand")
	jobs := flag.Int("jobs", 200, "synthetic background workload size (0 = empty cluster)")
	nodes := flag.Int("nodes", 4, "cluster size in nodes (single partition)")
	clusterSpec := flag.String("cluster", "", "partitioned heterogeneous cluster, e.g. 'batch:4xmn3,fat:2xfat' or 'hetero' (overrides -nodes)")
	seed := flag.Int64("seed", 1, "synthetic workload seed")
	ia := flag.Float64("ia", 30, "synthetic workload mean inter-arrival time (s)")
	forks := flag.Int("forks", 4, "maximum what-ifs forking or running a shared projection at once")
	shmemDir := flag.String("shmem", "", "back the live cluster's DROM segments with the file-based "+
		"shmem backend rooted at this directory, so external processes (e.g. dromctl -backend file:...) "+
		"can inspect the live segments; what-if forks still run on private in-memory copies")
	flag.Parse()

	p, err := sched.New(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(2)
	}
	swf := workload.SyntheticSWF{
		Seed: *seed, Jobs: *jobs, Nodes: *nodes, MeanInterarrival: *ia,
	}
	if *clusterSpec != "" {
		cs, err := cluster.ParseCluster(*clusterSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedd:", err)
			os.Exit(2)
		}
		swf.Cluster = cs
	}
	sc, err := workload.SyntheticSWFScenario(swf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(2)
	}
	sc.ShmemDir = *shmemDir
	sess, err := workload.NewSchedSession(sc, p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(2)
	}
	srv := schedd.NewServer(sess, *forks)
	log.Printf("schedd: %d-job %s workload under %s, listening on %s", *jobs, sc.Name, *policy, *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.Handler()))
}
