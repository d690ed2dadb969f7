// High-priority job (use case 2, §6.2): a long NEST simulation
// occupies two nodes when a high-priority CoreNeuron job arrives.
// Serial: the new job waits in the queue. DROM: SLURM equipartitions
// the nodes (16 CPUs each of 32), the simulation shrinks at its next
// malleability point, and when the high-priority job completes the
// simulation expands back (release_resources). The paper reports
// −2.5% total run time and −10% average response time.
package main

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	// The paper's UC2 runs: the spec scenario=uc2 under each policy.
	rs := workload.RunPaper("uc2/serial", "uc2/drom")
	serial, drom := rs["uc2/serial"], rs["uc2/drom"]
	if serial.Err != nil || drom.Err != nil {
		panic(fmt.Sprint(serial.Err, drom.Err))
	}

	for _, res := range []workload.Result{serial, drom} {
		fmt.Printf("--- %s scenario ---\n", res.Policy)
		for _, j := range res.Records.Jobs {
			fmt.Printf("  %-11s submit=%7.1fs wait=%7.1fs run=%7.1fs response=%7.1fs\n",
				j.Name, j.Submit, j.WaitTime(), j.RunTime(), j.ResponseTime())
		}
		fmt.Printf("  total run time %.1f s, avg response %.1f s\n\n",
			res.Records.TotalRunTime(), res.Records.AvgResponseTime())
	}

	fmt.Printf("DROM total run time gain:   %5.1f%%  (paper: 2.5%%)\n",
		100*metrics.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime()))
	fmt.Printf("DROM avg response gain:     %5.1f%%  (paper: 10%%)\n",
		100*metrics.Gain(serial.Records.AvgResponseTime(), drom.Records.AvgResponseTime()))
	hs, _ := serial.Records.Job("coreneuron")
	hd, _ := drom.Records.Job("coreneuron")
	fmt.Printf("high-priority job response: %.1f s -> %.1f s (started %.1f s earlier)\n",
		hs.ResponseTime(), hd.ResponseTime(), hs.Start-hd.Start)
}
