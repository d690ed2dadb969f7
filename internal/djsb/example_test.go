package djsb_test

import (
	"fmt"

	"repro/internal/djsb"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// ExampleGenerate evaluates scheduling policies on a randomized job
// stream.
func ExampleGenerate() {
	sc, _ := djsb.Generate(djsb.Params{Seed: 1, Jobs: 10, MeanInterarrival: 150, Nodes: 2})
	serial := workload.SchedStatsOf(sc, workload.Run(sc, slurm.PolicySerial))
	drom := workload.SchedStatsOf(sc, workload.Run(sc, slurm.PolicyDROM))
	fmt.Printf("DROM beats Serial on makespan: %v\n", drom.Makespan < serial.Makespan)
	// Output:
	// DROM beats Serial on makespan: true
}
