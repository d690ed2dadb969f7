package workload

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/apps"
	"repro/internal/metrics"
)

// Claim is one verifiable statement of the paper's evaluation. claims
// is the one place they are written down: cmd/report renders them,
// Figures 13 and 15 quote them and TestEvaluateAllClaimsPass holds them.
type Claim struct {
	ID, Source, Text string
	Paper            string // the paper's figure, as printed
	Unit             string // printed after the measured value
	// read takes values off each of Runs (RunClaims keys, each holding
	// Job when it is set) and combine folds them into the claim's
	// values: the reported one first, then any others Bands bound.
	Runs    []string
	Job     string
	read    func(r *Result, job string) []float64
	combine func(x []float64) []float64
	Bands   []Band // one per value; NaN holds none
}

// Band is the range a measured value must fall in. Open ends are ±Inf;
// MinIn and MaxIn make an end inclusive.
type Band struct {
	Min, Max     float64
	MinIn, MaxIn bool
}

func (b Band) holds(v float64) bool {
	return (v > b.Min || b.MinIn && v == b.Min) && (v < b.Max || b.MaxIn && v == b.Max)
}

var inf = math.Inf(1)

func within(min, max float64) Band   { return Band{Min: min, Max: max} }
func serialDROM(key string) []string { return []string{key + "/serial", key + "/drom"} }

// claims are the paper's §6 claims in report order, banded in the unit
// they print.
var claims = []Claim{
	{ID: "uc1-total", Source: "§6.1/Fig.4", Text: "DROM improves NEST+Pils total run time", Paper: "~5.9% avg",
		Unit: "%", Runs: serialDROM("uc1/nest1+pils2"), Bands: []Band{within(0, inf)}, read: total, combine: gain},
	{ID: "uc1-analytics", Source: "§6.1/Fig.6", Text: "Analytics response time collapses (wait→0)", Paper: "up to 96%",
		Unit: "%", Runs: serialDROM("uc1/nest1+pils2"), Job: "pils", Bands: []Band{within(75, inf)}, read: response, combine: gain},
	{ID: "uc1-sim-penalty", Source: "§6.1/Fig.6", Text: "Simulator response penalty stays small", Paper: "0..4.2%",
		Unit: "%", Runs: serialDROM("uc1/nest1+pils2"), Job: "nest", Bands: []Band{{Min: 0, MinIn: true, Max: 10}}, read: response, combine: penalty},
	{ID: "uc1-avg-resp", Source: "§6.1/Fig.8", Text: "Average response time improves", Paper: "37..48%",
		Unit: "%", Runs: serialDROM("uc1/nest1+pils2"), Bands: []Band{within(30, 55)}, read: avgResponse, combine: gain},
	{ID: "uc1-stream-total", Source: "§6.1/Fig.7", Text: "NEST+STREAM total always better under DROM", Paper: "avg 1.84%, max 3.5%",
		Unit: "%", Runs: serialDROM("uc1/nest1+stream1"), Bands: []Band{within(0, inf)}, read: total, combine: gain},
	{ID: "uc1-stream-resp", Source: "§6.1/Fig.7", Text: "STREAM response time collapses", Paper: "−92%",
		Unit: "%", Runs: serialDROM("uc1/nest1+stream1"), Job: "stream", Bands: []Band{within(80, inf)}, read: response, combine: gain},
	{ID: "uc1-cn-total", Source: "§6.1/Fig.11", Text: "CoreNeuron+STREAM total run time gain", Paper: "up to 8%",
		Unit: "%", Runs: serialDROM("uc1/coreneuron1+stream1"), Bands: []Band{within(0, 15)}, read: total, combine: gain},
	{ID: "uc2-total", Source: "§6.2/Fig.13", Text: "UC2 total run time improves", Paper: "2.5%",
		Unit: "%", Runs: serialDROM("uc2"), Bands: []Band{within(1, 8)}, read: total, combine: gain},
	{ID: "uc2-avg-resp", Source: "§6.2/Fig.15", Text: "UC2 average response time improves", Paper: "10%",
		Unit: "%", Runs: serialDROM("uc2"), Bands: []Band{within(5, 25)}, read: avgResponse, combine: gain},
	{ID: "uc2-hp-start", Source: "§6.2", Text: "High-priority job starts immediately under DROM", Paper: "starts at submission",
		Unit: "s wait", Runs: []string{"uc2/drom"}, Job: "coreneuron", Bands: []Band{within(-inf, 1e-9)}, read: wait, combine: value},
	{ID: "baseline-oversub", Source: "§2/§6.2", Text: "Oversubscription worse than DROM (UC2 total)", Paper: "degrades performance",
		Unit: "s slower", Runs: []string{"uc2/oversubscribe", "uc2/drom"}, Bands: []Band{within(0, inf)}, read: total, combine: excess},
	{ID: "baseline-preempt", Source: "§2/§6.2", Text: "Preemption worse than DROM (UC2 total)", Paper: "degrades performance",
		Unit: "s slower", Runs: []string{"uc2/preempt", "uc2/drom"}, Bands: []Band{within(0, inf)}, read: total, combine: excess},
	{ID: "fig5-imbalance", Source: "§6.1/Fig.5", Text: "Static partition: 4 threads absorb the removed chunk, rest idle", Paper: "threads 1-4 busy, others idle gaps",
		Unit: " util gap", Runs: []string{"fig5/drom"}, Bands: []Band{within(-inf, inf), within(0.95, inf), within(-inf, 0.9)}, read: imbalance, combine: value},
	{ID: "variability", Source: "§6", Text: "Run-to-run variability within the paper's CV", Paper: "CV ≤ 3.4%",
		Unit: "% CV", Runs: []string{"jitter/0", "jitter/1", "jitter/2"}, Bands: []Band{{Min: -inf, Max: 3.4, MaxIn: true}}, read: total, combine: cv},
}

// RunClaims executes each run the claims read once and returns them by
// key.
func RunClaims() map[string]Result { return RunPaper(claimKeys()...) }

// claimKeys lists the keys of the runs the claims read.
func claimKeys() (keys []string) {
	for _, c := range claims {
		keys = append(keys, c.Runs...)
	}
	return keys
}

// RunPaper executes each run of the paper's evaluation that keys name,
// once however often it is named, and returns them by key. A key no
// run has is left out.
func RunPaper(keys ...string) map[string]Result {
	rs := make(map[string]Result)
	for _, r := range paperRunsOf(keys) {
		rs[r.key] = r.spec.run()
	}
	return rs
}

// paperRun is one run of the paper's evaluation, under its key: a
// spec of one cell.
type paperRun struct {
	key  string
	spec Spec
}

// paperRunsOf lists the runs keys name, in paperRuns' order.
func paperRunsOf(keys []string) []paperRun {
	return slices.DeleteFunc(paperRuns(), func(r paperRun) bool { return !slices.Contains(keys, r.key) })
}

// paperRuns lists every run of the paper's evaluation: the UC1 grid of
// Table 1's configurations under Serial and DROM, UC2 untraced and
// traced (uc2-traced) under both, the two baselines on UC2, the traced
// runs of Figures 3 and 5, and three runs jittered by 2% at seeds
// 1..3. Each but the jittered ones is keyed by its scenario, its
// policy last.
func paperRuns() []paperRun {
	var runs []paperRun
	add := func(key string, s Spec, policies ...string) {
		for _, p := range policies {
			s.Policies = []string{p}
			runs = append(runs, paperRun{key + "/" + p, s})
		}
	}
	for _, sim := range []string{"nest", "coreneuron"} {
		for _, ana := range []string{"pils", "stream"} {
			for si := range apps.Table1(sim) {
				for ai := range apps.Table1(ana) {
					add(uc1Key(sim, si, ana, ai), Spec{Paper: "uc1", Sim: fmt.Sprint(sim, si+1), Ana: fmt.Sprint(ana, ai+1)},
						"serial", "drom")
				}
			}
		}
	}
	add("uc2", Spec{Paper: "uc2"}, "serial", "drom", "oversubscribe", "preempt")
	add("uc2-traced", Spec{Paper: "uc2", Trace: true}, "serial", "drom")
	add("fig3", Spec{Paper: "uc1", Sim: "nest1", Ana: "pils3", Trace: true}, "serial", "drom")
	add("fig5", Spec{Paper: "uc1", Sim: "nest1", Ana: "pils2", Trace: true}, "drom")
	for i := range 3 {
		jitter := Spec{Paper: "uc1", Sim: "nest1", Ana: "pils2", Jitter: 0.02, Seeds: []int64{int64(i + 1)}, Policies: []string{"drom"}}
		runs = append(runs, paperRun{fmt.Sprint("jitter/", i), jitter})
	}
	return runs
}

// uc1Key keys the UC1 run of simulator configuration si and analytics
// configuration ai (Table 1's, from 0), policy left off.
func uc1Key(sim string, si int, ana string, ai int) string {
	return fmt.Sprintf("uc1/%s%d+%s%d", sim, si+1, ana, ai+1)
}

// Verdict is one claim measured.
type Verdict struct {
	Claim
	Measured float64
	Pass     bool
}

// EvaluateClaims measures every claim on results keyed as RunClaims
// keys them. A run that is missing, failed or lacks the claim's job is
// an error naming the claim and the run, not a verdict.
func EvaluateClaims(rs map[string]Result) ([]Verdict, error) {
	vs := make([]Verdict, len(claims))
	for i, c := range claims {
		var x []float64
		for _, key := range c.Runs {
			r, err := checkRun(rs, key, c.Job)
			if err != nil {
				return nil, fmt.Errorf("claim %s: %w", c.ID, err)
			}
			x = append(x, c.read(r, c.Job)...)
		}
		vals := c.combine(x)
		vs[i] = Verdict{Claim: c, Measured: vals[0], Pass: true}
		for k, b := range c.Bands {
			vs[i].Pass = vs[i].Pass && b.holds(vals[k])
		}
	}
	return vs, nil
}

// checkRun returns the run under key, or an error naming it when it is
// missing, failed or lacks one of jobs ("" names none).
func checkRun(rs map[string]Result, key string, jobs ...string) (*Result, error) {
	r, ok := rs[key]
	if !ok {
		return nil, fmt.Errorf("no run %s", key)
	}
	if r.Err != nil {
		return nil, fmt.Errorf("run %s: %w", key, r.Err)
	}
	for _, job := range jobs {
		if _, ok := r.Records.Job(job); job != "" && !ok {
			return nil, fmt.Errorf("run %s has no job %s", key, job)
		}
	}
	return &r, nil
}

func total(r *Result, _ string) []float64       { return []float64{r.Records.TotalRunTime()} }
func avgResponse(r *Result, _ string) []float64 { return []float64{r.Records.AvgResponseTime()} }
func response(r *Result, job string) []float64  { return []float64{r.job(job).ResponseTime()} }
func wait(r *Result, job string) []float64      { return []float64{r.job(job).WaitTime()} }
func (r *Result) job(name string) metrics.JobRecord {
	j, _ := r.Records.Job(name)
	return j
}

// imbalance reads Figure 5's gap between the mean utilization of
// threads 00–03 (busy, absorbing the removed thread's chunks) and of
// threads 04–14 (idle part of each iteration), then the two means. A
// missing thread row reads NaN.
func imbalance(r *Result, _ string) []float64 {
	util := make(map[string]float64)
	for _, p := range figure5Series(*r).Points {
		util[p.X] = p.Y
	}
	mean := func(from, to int) (m float64) {
		for t := from; t <= to; t++ {
			y, ok := util[fmt.Sprintf("thread %02d", t)]
			if !ok {
				return math.NaN()
			}
			m += float64(y / float64(to-from+1))
		}
		return m
	}
	busy, idle := mean(0, 3), mean(4, 14)
	return []float64{busy - idle, busy, idle}
}

// gain and penalty are the percentages by which a value falls and
// rises from the first run to the second; excess is by how much the
// first exceeds the second.
func value(x []float64) []float64   { return x }
func gain(x []float64) []float64    { return []float64{100 * metrics.Gain(x[0], x[1])} }
func penalty(x []float64) []float64 { return []float64{100 * -metrics.Gain(x[0], x[1])} }
func excess(x []float64) []float64  { return []float64{x[0] - x[1]} }

// cv is the coefficient of variation over the runs, in percent.
func cv(x []float64) []float64 {
	var mean, varsum float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for _, v := range x {
		varsum += float64((v - mean) * (v - mean))
	}
	if mean <= 0 {
		return []float64{0}
	}
	return []float64{100 * (math.Sqrt(varsum/float64(len(x))) / mean)}
}
