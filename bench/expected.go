package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
)

// observed is what a trial of a workload put out, reduced to the
// values the benchmark checks: the simulated outcome, never a timing.
// Every trial of a run must produce the same observed value, and for
// the seeds with a committed reference it must equal that reference.
type observed struct {
	Jobs       int     `json:"jobs,omitempty"`
	MeanWaitS  float64 `json:"mean_wait_s,omitempty"`
	MakespanS  float64 `json:"makespan_s,omitempty"`
	Spilled    int     `json:"spilled,omitempty"`
	Requeues   int     `json:"requeues,omitempty"`
	NodeFailed int     `json:"node_failed,omitempty"`
	Cancelled  int     `json:"cancelled,omitempty"`
	Failed     int     `json:"failed,omitempty"`
	// Digest covers the per-job outcome where the run materializes
	// records (job, partition, outcome, start to 1 ms), the per-cell
	// statistics of a sweep, the what-if predictions of the first
	// closed-loop batch, or the measured gains of the paper pass.
	Digest string `json:"digest,omitempty"`
	// StartsDigest covers every job start in simulation order, taken
	// from the probe; only a traced run has it.
	StartsDigest string `json:"starts_digest,omitempty"`
	// Claims are the paper-claim verdicts and GainErrPP the mean
	// absolute gap to the paper's point figures (paper_uc only).
	Claims    map[string]bool `json:"claims,omitempty"`
	GainErrPP float64         `json:"paper_gain_err_pp,omitempty"`
}

// closeTo compares two simulated quantities to 1e-9 relative.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// diff lists the fields in which got departs from want. An untraced
// run has no StartsDigest and is not held to the reference's.
func (got observed) diff(want observed) []string {
	var out []string
	num := func(name string, a, b float64) {
		if !closeTo(a, b) {
			out = append(out, fmt.Sprintf("%s = %v, want %v", name, a, b))
		}
	}
	num("jobs", float64(got.Jobs), float64(want.Jobs))
	num("mean_wait_s", got.MeanWaitS, want.MeanWaitS)
	num("makespan_s", got.MakespanS, want.MakespanS)
	num("spilled", float64(got.Spilled), float64(want.Spilled))
	num("requeues", float64(got.Requeues), float64(want.Requeues))
	num("node_failed", float64(got.NodeFailed), float64(want.NodeFailed))
	num("cancelled", float64(got.Cancelled), float64(want.Cancelled))
	num("failed", float64(got.Failed), float64(want.Failed))
	num("paper_gain_err_pp", got.GainErrPP, want.GainErrPP)
	if got.Digest != want.Digest {
		out = append(out, fmt.Sprintf("digest = %s, want %s", got.Digest, want.Digest))
	}
	if got.StartsDigest != "" && want.StartsDigest != "" && got.StartsDigest != want.StartsDigest {
		out = append(out, fmt.Sprintf("starts_digest = %s, want %s", got.StartsDigest, want.StartsDigest))
	}
	for _, id := range sortedKeys(want.Claims) {
		if got.Claims[id] != want.Claims[id] {
			out = append(out, fmt.Sprintf("claim %s = %v, want %v", id, got.Claims[id], want.Claims[id]))
		}
	}
	if len(got.Claims) != len(want.Claims) {
		out = append(out, fmt.Sprintf("%d claims, want %d", len(got.Claims), len(want.Claims)))
	}
	return out
}

// expectedFile is where the committed references live, relative to
// the repository root.
const expectedFile = "bench/expected.json"

//go:embed expected.json
var expectedJSON []byte

// references maps workload → seed → the outputs committed for it at
// full size.
type references map[string]map[string]observed

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(expectedJSON, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedFile, err)
	}
	return refs, nil
}

// lookup returns the reference for a workload and seed, if one is
// committed.
func (r references) lookup(workload string, seed int64) (observed, bool) {
	o, ok := r[workload][strconv.FormatInt(seed, 10)]
	return o, ok
}

// write stores the references back (the -update-expected path).
func (r references) write() error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedFile, append(data, '\n'), 0o644)
}
