package trace_test

// Scenario-driven exporter tests: run a small traced workload end to
// end and push its real Tracer through the Paraver exporters,
// instead of the hand-built segments the unit tests use. The external
// test package breaks the import cycle (workload imports trace).

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/slurm"
	"repro/internal/trace"
	"repro/internal/workload"
)

// smallTracedRun replays the traced UC1 schematic workload and
// returns its tracer.
func smallTracedRun(t *testing.T) *trace.Tracer {
	t.Helper()
	sc := workload.UC1("nest", apps.Config{Ranks: 2, Threads: 16},
		"pils", apps.Config{Ranks: 2, Threads: 4}, true)
	res := workload.Run(sc, slurm.PolicyDROM)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Tracer == nil || len(res.Tracer.Segments()) == 0 {
		t.Fatal("traced run produced no segments")
	}
	return res.Tracer
}

func TestScenarioParaverOutputs(t *testing.T) {
	tr := smallTracedRun(t)
	var prv, pcf, row bytes.Buffer
	if err := tr.WritePRV(&prv); err != nil {
		t.Fatal(err)
	}
	if err := tr.WritePCF(&pcf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteROW(&row); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(prv.String(), "\n", 2)[0]
	if !strings.HasPrefix(head, "#Paraver") {
		t.Fatalf("PRV header wrong: %q", head)
	}
	// Every job of the tracer must appear as an application in the
	// header and have at least one state record.
	jobs := tr.Jobs()
	if len(jobs) < 2 {
		t.Fatalf("UC1 should trace 2 jobs, got %v", jobs)
	}
	records := strings.Count(prv.String(), "\n") - 1
	if records <= 0 {
		t.Fatalf("PRV has no records:\n%s", prv.String())
	}
	for _, want := range []string{"STATES", "Running"} {
		if !strings.Contains(pcf.String(), want) {
			t.Fatalf("PCF missing %q:\n%s", want, pcf.String())
		}
	}
	if !strings.Contains(row.String(), "LEVEL") {
		t.Fatalf("ROW missing level blocks:\n%s", row.String())
	}
}
