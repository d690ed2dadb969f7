package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/slurm"
)

// djsbApps is the stream's application mixture, paper-flavored — long
// simulators and short analytics: each job draws an app by weight, one
// of its Table 1 configurations uniformly and an iteration count
// uniformly in [itersMin, itersMax].
var djsbApps = []struct {
	spec               apps.Spec
	weight             float64
	itersMin, itersMax int
}{
	{apps.NEST(), 1.5, 200, 600},
	{apps.CoreNeuron(), 1, 200, 500},
	{apps.Pils(), 2, 50, 300},
	{apps.STREAM(), 1, 100, 400},
}

// djsbScenario generates a Dynamic Job Scheduling Benchmark-style
// stream, after López et al., "DJSB: Dynamic Job Scheduling Benchmark"
// (JSSPP 2017) — reference [26] of the paper, by the same group, used
// there to quantify why plain oversubscription degrades performance:
// jobs arrive as a Poisson process of mean inter-arrival ia, each an
// app of the weighted mixture spanning all nodes. The stream is
// reproducible from seed; Spec.Validate checks the parameters.
func djsbScenario(seed int64, jobs int, ia float64, nodes int) Scenario {
	var totalW float64
	for _, m := range djsbApps {
		totalW += m.weight
	}
	r := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Name:  fmt.Sprintf("DJSB stream: seed=%d jobs=%d mean-interarrival=%.0fs nodes=%d", seed, jobs, ia, nodes),
		Nodes: nodes,
	}
	var at float64
	for i := range jobs {
		at += float64(r.ExpFloat64() * ia)
		// Weighted pick.
		x := r.Float64() * totalW
		m := djsbApps[len(djsbApps)-1]
		for _, cand := range djsbApps {
			if x < cand.weight {
				m = cand
				break
			}
			x -= cand.weight
		}
		cfgs := apps.Table1(m.spec.Name)
		cfg := cfgs[r.Intn(len(cfgs))]
		// Re-shape the configuration to the job's node count: keep
		// threads, scale ranks so ranks%nodes == 0 (Table 1's
		// configurations are 2-node shaped).
		cfg = apps.Config{Ranks: max(cfg.Ranks/2, 1) * nodes, Threads: cfg.Threads}
		sc.Subs = append(sc.Subs, Submission{
			At: at,
			Job: slurm.Job{
				Name:      fmt.Sprintf("%s-%03d", m.spec.Name, i),
				Spec:      m.spec,
				Cfg:       cfg,
				Iters:     m.itersMin + r.Intn(m.itersMax-m.itersMin+1),
				Nodes:     nodes,
				Malleable: true,
			},
		})
	}
	return sc
}
