package sweep_test

import (
	"fmt"

	"repro/internal/sweep"
)

// ExampleRun executes a tiny 2-experiment grid on one worker and
// prints the deterministic outcome fields. Any worker count yields
// byte-identical results.
func ExampleRun() {
	sum, err := sweep.Run(sweep.Grid{
		Policies: []string{"fcfs", "malleable-expand"},
		Seeds:    []int64{1},
		Jobs:     60,
		Nodes:    2,
	}, 1)
	if err != nil {
		panic(err)
	}
	for _, r := range sum.Results {
		fmt.Printf("%s jobs=%d mean_wait=%.1fs\n", r.Policy, r.Jobs, r.Stats.MeanWait)
	}
	// Output:
	// fcfs jobs=60 mean_wait=175.9s
	// malleable-expand jobs=60 mean_wait=0.0s
}
