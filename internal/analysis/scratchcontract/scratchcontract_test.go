package scratchcontract_test

import (
	"testing"

	"repro/internal/analysis/atest"
	"repro/internal/analysis/scratchcontract"
)

func TestScratchContract(t *testing.T) {
	atest.Run(t, scratchcontract.Analyzer, "sc", "fl")
}
