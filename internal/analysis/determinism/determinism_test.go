package determinism_test

import (
	"testing"

	"repro/internal/analysis/atest"
	"repro/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	atest.Run(t, determinism.Analyzer, "a/internal/sched", "a/cmd/gen")
}

func TestInScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/sched":                true,
		"repro/internal/slurm":                true,
		"repro/internal/sweep":                true,
		"repro/internal/apps":                 true,
		"internal/obs":                        true,
		"repro/cmd/simrun":                    false,
		"repro/internal/analysis/determinism": false,
	} {
		if got := determinism.InScope(path); got != want {
			t.Errorf("InScope(%q) = %v, want %v", path, got, want)
		}
	}
}
