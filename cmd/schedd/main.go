// Command schedd serves one live simulated cluster over HTTP: submit
// jobs, cancel them, flip their malleability, advance virtual time,
// and ask what-if questions ("when would job X start under policy Y?")
// that are answered by forking the whole simulation and running the
// fork forward — without perturbing the live lineage. What-ifs on an
// unchanged state share one fork per policy, which runs only as far as
// the latest start asked about; every mutation starts afresh.
//
// The boot flags -sched, -jobs, -nodes, -cluster, -seed and -ia each
// set one key of workload.ParseSpec's grammar (policies, jobs, nodes,
// cluster, seeds, ia); the live cluster is that spec's first cell.
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

	"repro/internal/schedd"
	"repro/internal/workload"
)

// bootDefaults are the boot flags' defaults: a 200-job background
// workload on 4 nodes, FCFS.
var bootDefaults = map[string]string{"sched": "fcfs", "jobs": "200", "nodes": "4", "seed": "1", "ia": "30"}

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	forks := flag.Int("forks", 4, "maximum what-ifs forking or running a shared projection at once")
	shmemDir := flag.String("shmem", "", "back the live cluster's DROM segments with the file-based "+
		"shmem backend rooted at this directory, so external processes (e.g. dromctl -backend file:...) "+
		"can inspect the live segments; what-if forks still run on private in-memory copies")
	workload.RegisterFlags(flag.CommandLine, workload.ScheddFlags, bootDefaults)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "schedd: unexpected argument %q: every option is a -flag\n", flag.Arg(0))
		os.Exit(1)
	}

	sess, err := boot(flag.CommandLine, *shmemDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
	srv := schedd.NewServer(sess, *forks)
	log.Printf("schedd: %d-job %s workload under %s, listening on %s",
		len(sess.Scenario().Subs), sess.Scenario().Name, flag.Lookup("sched").Value, *addr)
	log.Fatal(http.ListenAndServe(*addr, srv.Handler()))
}

// boot opens the live session the boot flags on fs describe. -jobs 0
// boots an empty cluster: the generator reads 0 as its default length.
func boot(fs *flag.FlagSet, shmemDir string) (*workload.Session, error) {
	spec, err := workload.FlagSpec(fs, workload.ScheddFlags)
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		return nil, err
	}
	sc := workload.Scenario{Name: "empty"}
	if spec.Jobs != 0 {
		if sc, err = spec.Scenario(); err != nil {
			return nil, err
		}
	}
	sc.ShmemDir = shmemDir
	return spec.Open(sc, nil)
}
