package workload

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestEvaluateAllClaimsPass holds every row of the claims table, and
// keeps its ids those report.golden pins.
func TestEvaluateAllClaimsPass(t *testing.T) {
	verdicts, err := EvaluateClaims(RunClaims())
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../cmd/report/testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, line := range strings.Split(string(golden), "\n") {
		// The measured-value lines: "# <id> <value>".
		if f := strings.Fields(line); len(f) == 3 && f[0] == "#" {
			if _, err := strconv.ParseFloat(f[2], 64); err == nil {
				want = append(want, f[1])
			}
		}
	}
	for _, v := range verdicts {
		got = append(got, v.ID)
		if !v.Pass {
			t.Errorf("claim %s failed: measured %.2f%s (paper: %s)", v.ID, v.Measured, v.Unit, v.Paper)
		}
	}
	if len(want) != 14 || !slices.Equal(got, want) {
		t.Errorf("claim ids = %v, report.golden has %v", got, want)
	}
}

// TestEvaluateClaimsMissingJob: a run that lacks a job a claim reads
// is an error naming the claim and the run, not a zero that passes.
func TestEvaluateClaimsMissingJob(t *testing.T) {
	for _, tc := range []struct{ claim, key, job string }{
		{"uc2-hp-start", "uc2/drom", "coreneuron"},
		{"uc1-sim-penalty", "uc1/nest1+pils2/drom", "nest"},
	} {
		rs := RunClaims()
		res := rs[tc.key]
		res.Records.Jobs = slices.DeleteFunc(slices.Clone(res.Records.Jobs),
			func(j metrics.JobRecord) bool { return j.Name == tc.job })
		rs[tc.key] = res
		_, err := EvaluateClaims(rs)
		if err == nil || !strings.Contains(err.Error(), "claim "+tc.claim+":") ||
			!strings.Contains(err.Error(), "run "+tc.key+" has no job "+tc.job) {
			t.Errorf("without %s in %s: err = %v", tc.job, tc.key, err)
		}
	}
}

// TestBandEdges: an end is open unless marked inclusive.
func TestBandEdges(t *testing.T) {
	for _, tc := range []struct {
		b    Band
		v    float64
		want bool
	}{
		{within(0, inf), 0, false},
		{within(0, inf), 1e-300, true},
		{within(-inf, 1e-9), 1e-9, false},
		{within(-inf, 1e-9), 0, true},
		{within(1, 8), 8, false},
		{Band{Min: 0, MinIn: true, Max: 10}, 0, true},
		{Band{Min: 0, MinIn: true, Max: 10}, 10, false},
		{Band{Min: -inf, Max: 3.4, MaxIn: true}, 3.4, true},
	} {
		if got := tc.b.holds(tc.v); got != tc.want {
			t.Errorf("%+v holds %v = %v, want %v", tc.b, tc.v, got, tc.want)
		}
	}
}
