package main

import (
	"bytes"
	"os"
	"testing"
)

// TestRunEachArtifact executes every artifact generator end to end
// (output goes to stdout; correctness of the numbers is asserted in
// internal/workload — here we guard the CLI wiring).
func TestRunEachArtifact(t *testing.T) {
	ids := []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"}
	for _, id := range ids {
		if err := run(id); err != nil {
			t.Errorf("run(%q): %v", id, err)
		}
	}
}

func TestRunUnknownIDIsNoop(t *testing.T) {
	if err := run("zzz"); err != nil {
		t.Fatalf("unknown id should be a no-op, got %v", err)
	}
}

func TestExportTracesToTempDir(t *testing.T) {
	outDir = t.TempDir()
	defer func() { outDir = "" }()
	if err := run("fig5"); err != nil {
		t.Fatal(err)
	}
}

// TestFigure2Golden pins `figures -id fig2` byte for byte. The golden
// is the stdout of the binary built before the protocol log became a
// consumer of the probe bus (obs.Protocol); regenerate it only after an
// intentional change of the Figure-2 protocol or its wording.
func TestFigure2Golden(t *testing.T) {
	var got bytes.Buffer
	if err := figure2(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fig2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("fig2 diverged from the golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
