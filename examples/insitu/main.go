// In-situ analytics (use case 1, §6.1): a NEST neuro-simulation holds
// two nodes while a Pils analytics job arrives mid-run. Under the
// Serial policy the analytics waits for the simulation to finish;
// under DROM it starts immediately on CPUs taken from the simulation
// and returns them when done. The example prints the paper's system
// metrics for both scenarios.
package main

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	// The paper's runs of NEST Conf. 1 with Pils Conf. 2, each the
	// spec scenario=uc1;sim=nest1;ana=pils2 under one policy.
	rs := workload.RunPaper("uc1/nest1+pils2/serial", "uc1/nest1+pils2/drom")
	serial, drom := rs["uc1/nest1+pils2/serial"], rs["uc1/nest1+pils2/drom"]
	if serial.Err != nil || drom.Err != nil {
		panic(fmt.Sprint(serial.Err, drom.Err))
	}

	for _, res := range []workload.Result{serial, drom} {
		fmt.Printf("--- %s scenario ---\n", res.Policy)
		for _, j := range res.Records.Jobs {
			fmt.Printf("  %-6s submit=%7.1fs wait=%7.1fs run=%7.1fs response=%7.1fs\n",
				j.Name, j.Submit, j.WaitTime(), j.RunTime(), j.ResponseTime())
		}
		fmt.Printf("  total run time %.1f s, avg response %.1f s\n\n",
			res.Records.TotalRunTime(), res.Records.AvgResponseTime())
	}

	fmt.Printf("DROM vs Serial: total run time %+.1f%%, avg response %+.1f%%\n",
		-100*metrics.Gain(serial.Records.TotalRunTime(), drom.Records.TotalRunTime()),
		-100*metrics.Gain(serial.Records.AvgResponseTime(), drom.Records.AvgResponseTime()))
	ps, _ := serial.Records.Job("pils")
	pd, _ := drom.Records.Job("pils")
	fmt.Printf("analytics response: %.1f s -> %.1f s (%+.1f%%; paper: up to -96%%)\n",
		ps.ResponseTime(), pd.ResponseTime(),
		-100*metrics.Gain(ps.ResponseTime(), pd.ResponseTime()))
}
