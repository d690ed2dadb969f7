// Package djsb implements a Dynamic Job Scheduling Benchmark-style
// workload generator, after López et al., "DJSB: Dynamic Job
// Scheduling Benchmark" (JSSPP 2017) — reference [26] of the paper,
// by the same group, used there to quantify why plain oversubscription
// degrades performance. It synthesizes randomized but reproducible job
// streams (Poisson arrivals, weighted application mix) and summarizes
// scheduler quality with the standard batch metrics: makespan, average
// response, average bounded slowdown and utilization.
package djsb

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/slurm"
	"repro/internal/workload"
)

// appMix is one entry of the application mixture.
type appMix struct {
	Spec apps.Spec
	// Cfgs are the admissible configurations; one is picked uniformly.
	Cfgs []apps.Config
	// Weight is the relative arrival probability.
	Weight float64
	// ItersMin/ItersMax bound the per-job size (uniform).
	ItersMin, ItersMax int
}

// Params configures a generated workload.
type Params struct {
	Seed int64
	Jobs int
	// MeanInterarrival is the exponential inter-arrival mean (s).
	MeanInterarrival float64
	// Nodes is the cluster size (default 2); every job spans all of it.
	Nodes int
}

// paperMix returns the paper-flavored mixture: long simulators and
// short analytics.
func paperMix() []appMix {
	return []appMix{
		{Spec: apps.NEST(), Cfgs: apps.Table1("nest"), Weight: 1.5, ItersMin: 200, ItersMax: 600},
		{Spec: apps.CoreNeuron(), Cfgs: apps.Table1("coreneuron"), Weight: 1, ItersMin: 200, ItersMax: 500},
		{Spec: apps.Pils(), Cfgs: apps.Table1("pils"), Weight: 2, ItersMin: 50, ItersMax: 300},
		{Spec: apps.STREAM(), Cfgs: apps.Table1("stream"), Weight: 1, ItersMin: 100, ItersMax: 400},
	}
}

// Generate builds a reproducible scenario from the parameters.
func Generate(p Params) (workload.Scenario, error) {
	if m := p.MeanInterarrival; p.Jobs <= 0 || !(m > 0) || math.IsInf(m, 1) {
		return workload.Scenario{}, fmt.Errorf("djsb: need positive Jobs and a positive finite MeanInterarrival (got %d, %v)", p.Jobs, m)
	}
	if err := hwmodel.CheckNodes(p.Nodes); err != nil {
		return workload.Scenario{}, fmt.Errorf("djsb: %w", err)
	}
	if p.Nodes == 0 {
		p.Nodes = 2
	}
	mix := paperMix()
	var totalW float64
	for _, m := range mix {
		totalW += m.Weight
	}

	r := rand.New(rand.NewSource(p.Seed))
	sc := workload.Scenario{
		Name:  fmt.Sprintf("djsb/seed%d-jobs%d", p.Seed, p.Jobs),
		Nodes: p.Nodes,
	}
	var at float64
	for i := 0; i < p.Jobs; i++ {
		at += float64(r.ExpFloat64() * p.MeanInterarrival)
		// Weighted pick.
		x := r.Float64() * totalW
		var m appMix
		for _, cand := range mix {
			if x < cand.Weight {
				m = cand
				break
			}
			x -= cand.Weight
		}
		if m.Spec.Name == "" {
			m = mix[len(mix)-1]
		}
		cfg := m.Cfgs[r.Intn(len(m.Cfgs))]
		// Re-shape the configuration to the job's node count: keep
		// threads, scale ranks so ranks%nodes == 0.
		ranksPerNode := cfg.Ranks / 2 // Table 1 configs are 2-node shaped
		if ranksPerNode < 1 {
			ranksPerNode = 1
		}
		cfg = apps.Config{Ranks: ranksPerNode * p.Nodes, Threads: cfg.Threads}
		iters := m.ItersMin + r.Intn(m.ItersMax-m.ItersMin+1)
		sc.Subs = append(sc.Subs, workload.Submission{
			At: at,
			Job: slurm.Job{
				Name:      fmt.Sprintf("%s-%03d", m.Spec.Name, i),
				Spec:      m.Spec,
				Cfg:       cfg,
				Iters:     iters,
				Nodes:     p.Nodes,
				Malleable: true,
			},
		})
	}
	return sc, nil
}

// Report summarizes one scheduler run with the DJSB metrics.
type Report struct {
	Policy      slurm.Policy
	Jobs        int
	Makespan    float64
	AvgResponse float64
	AvgSlowdown float64 // bounded slowdown, threshold 10 s
	MaxSlowdown float64
	AvgWait     float64
	Throughput  float64 // jobs per 1000 s
	ResponseP95 float64
}

// boundedSlowdownThreshold avoids slowdown explosion for tiny jobs.
const boundedSlowdownThreshold = 10.0

// Summarize computes the report from a finished run.
func Summarize(res workload.Result) Report {
	rep := Report{Policy: res.Policy, Jobs: len(res.Records.Jobs)}
	if rep.Jobs == 0 {
		return rep
	}
	var wait, slow, maxSlow float64
	var resp metrics.Summary
	for _, j := range res.Records.Jobs {
		wait += j.WaitTime()
		resp.Observe(j.ResponseTime())
		den := math.Max(j.RunTime(), boundedSlowdownThreshold)
		s := math.Max(1, j.ResponseTime()/den)
		slow += s
		maxSlow = math.Max(maxSlow, s)
	}
	n := float64(rep.Jobs)
	rep.Makespan = res.Records.TotalRunTime()
	rep.AvgResponse = res.Records.AvgResponseTime()
	rep.AvgWait = wait / n
	rep.AvgSlowdown = slow / n
	rep.MaxSlowdown = maxSlow
	rep.ResponseP95 = resp.Percentile(95)
	if rep.Makespan > 0 {
		rep.Throughput = n / rep.Makespan * 1000
	}
	return rep
}

func (r Report) String() string {
	return fmt.Sprintf(
		"policy=%-13s jobs=%d makespan=%.0fs avg_resp=%.0fs p95_resp=%.0fs avg_wait=%.0fs avg_slowdown=%.2f max_slowdown=%.2f throughput=%.2f jobs/ks",
		r.Policy, r.Jobs, r.Makespan, r.AvgResponse, r.ResponseP95, r.AvgWait,
		r.AvgSlowdown, r.MaxSlowdown, r.Throughput)
}

// Run generates and executes the workload under a policy.
func Run(p Params, policy slurm.Policy) (Report, error) {
	sc, err := Generate(p)
	if err != nil {
		return Report{}, err
	}
	res := workload.Run(sc, policy)
	if res.Err != nil {
		return Report{}, res.Err
	}
	return Summarize(res), nil
}
