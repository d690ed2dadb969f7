package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// sizes fixes how much work each workload and ledger driver does.
// They are constants of the benchmark, never scaled to the machine: a
// number is comparable only with numbers taken at the same sizes.
type sizes struct {
	// StreamJobs is the trace length of one stream_light trial.
	StreamJobs int `json:"stream_jobs"`
	// BacklogJobs is the trace length of one backlog_hetero trial.
	BacklogJobs int `json:"backlog_jobs"`
	// SweepJobs is the trace length of each of sweep_grid's 8 cells.
	SweepJobs int `json:"sweep_jobs"`
	// ScheddJobs is the trace behind the schedd_mixed session.
	ScheddJobs int `json:"schedd_jobs"`
	// Candidates is the number of distinct what-if targets.
	Candidates int `json:"candidates"`
	// Batch is the number of what-ifs in one closed-loop batch.
	Batch int `json:"batch"`
	// Rate is the open-loop request rate in requests per second.
	Rate float64 `json:"rate_per_s"`
	// MixedSeconds is the length of one open-loop segment of a
	// schedd_mixed round.
	MixedSeconds float64 `json:"mixed_seconds"`
	// LedgerJobs sizes the ledger's ingest, controller and sweep
	// drivers; MicroOps the loops of its unit-cost drivers;
	// LedgerMixedSeconds its open loop (1200 what-ifs and 300 mutations
	// at full size: ten samples beyond p99 and p95).
	LedgerJobs         int     `json:"ledger_jobs"`
	MicroOps           int     `json:"micro_ops"`
	LedgerMixedSeconds float64 `json:"ledger_mixed_seconds"`
}

// fullSizes were chosen from runs at the commit that added the
// benchmark so that one trial takes 0.5–2.5 s on two cores (see
// README.md); quickSizes shrink everything to a smoke test.
var (
	fullSizes = sizes{
		StreamJobs: 25000, BacklogJobs: 20000, SweepJobs: 5000,
		ScheddJobs: 10000, Candidates: 200, Batch: 200, Rate: 150, MixedSeconds: 1,
		LedgerJobs: 3000, MicroOps: 200000, LedgerMixedSeconds: 10,
	}
	quickSizes = sizes{
		StreamJobs: 1500, BacklogJobs: 1000, SweepJobs: 300,
		ScheddJobs: 2500, Candidates: 40, Batch: 40, Rate: 150, MixedSeconds: 0.4,
		LedgerJobs: 300, MicroOps: 5000, LedgerMixedSeconds: 0.4,
	}
)

// workers is W, the only concurrency of the benchmark: sweep workers,
// schedd connections and fork-pool slots are all W.
func workers() int {
	return min(runtime.NumCPU(), 4)
}

// env is what one run of one workload is parameterised by.
type env struct {
	seed    int64
	seconds float64
	quick   bool
	sz      sizes
	w       int
}

func newEnv(seed int64, seconds float64, quick bool) *env {
	e := &env{seed: seed, seconds: seconds, quick: quick, sz: fullSizes, w: workers()}
	if quick {
		e.sz = quickSizes
	}
	return e
}

// provenance stamps a result with everything needed to judge whether
// two results are comparable.
type provenance struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	W          int     `json:"w"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Sizes      sizes   `json:"sizes"`
}

func (e *env) provenance() provenance {
	return provenance{
		Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		W: e.w, Commit: commit(), Seed: e.seed, Seconds: e.seconds, Quick: e.quick, Sizes: e.sz,
	}
}

// commit names the checked-out commit, or "unknown" outside a git
// repository (the driver's checkouts are plain directories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB is the process's high-water resident set in MB (VmHWM),
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
