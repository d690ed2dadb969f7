package main

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestEvaluateAllClaimsPass(t *testing.T) {
	claims, err := evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(claims) < 12 {
		t.Fatalf("only %d claims evaluated", len(claims))
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %s failed: measured %.2f%s (paper: %s)",
				c.ID, c.Measured, c.Unit, c.Paper)
		}
	}
}

func TestRenderFormat(t *testing.T) {
	claims := []claim{
		{ID: "a", Source: "§1", Text: "t", Paper: "p", Measured: 1.5, Unit: "%", Pass: true},
		{ID: "b", Source: "§2", Text: "u", Paper: "q", Measured: 2.5, Unit: "s", Pass: false},
	}
	out := render(claims)
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
// oversubscribe, preempt, seeded jitter); TestEvaluateAllClaimsPass
// only asserts their direction. Regenerate (only after an intentional
// change of the paper model) with:
//
//	UPDATE_REPORT_GOLDEN=1 go test ./cmd/report -run TestReportGolden
const reportGoldenPath = "testdata/report.golden"

func TestReportGolden(t *testing.T) {
	claims, err := evaluate()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(render(claims))
	for _, c := range claims {
		sb.WriteString("# " + c.ID + " " + strconv.FormatFloat(c.Measured, 'g', -1, 64) + "\n")
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
