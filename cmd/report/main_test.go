package main

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestRenderFormat(t *testing.T) {
	verdicts := []workload.Verdict{
		{Claim: workload.Claim{ID: "a", Source: "§1", Text: "t", Paper: "p", Unit: "%"}, Measured: 1.5, Pass: true},
		{Claim: workload.Claim{ID: "b", Source: "§2", Text: "u", Paper: "q", Unit: "s"}, Measured: 2.5, Pass: false},
	}
	out := render(verdicts)
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "FAIL") {
		t.Errorf("verdicts missing:\n%s", out)
	}
	if !strings.Contains(out, "1/2 claims reproduced") {
		t.Errorf("summary missing:\n%s", out)
	}
}

// reportGoldenPath pins the rendered claims table — what `report`
// prints — plus every measured value at full float precision. The
// claims run on the builtin controller path (serial, DROM,
// oversubscribe, preempt, seeded jitter); workload's
// TestEvaluateAllClaimsPass only asserts their bands. Regenerate (only
// after an intentional change of the paper model) with:
//
//	UPDATE_REPORT_GOLDEN=1 go test ./cmd/report -run TestReportGolden
const reportGoldenPath = "testdata/report.golden"

func TestReportGolden(t *testing.T) {
	verdicts, err := workload.EvaluateClaims(workload.RunClaims())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(render(verdicts))
	for _, v := range verdicts {
		sb.WriteString("# " + v.ID + " " + strconv.FormatFloat(v.Measured, 'g', -1, 64) + "\n")
	}
	got := sb.String()
	if os.Getenv("UPDATE_REPORT_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", reportGoldenPath)
		return
	}
	want, err := os.ReadFile(reportGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("claims table diverged from the golden:\n--- got\n%s--- want\n%s", got, want)
	}
}
