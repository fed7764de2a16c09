package simproc_test

import (
	"testing"

	"durassd/internal/analysis/checktest"
	"durassd/internal/analysis/simproc"
)

func TestSimProc(t *testing.T) {
	checktest.Run(t, "simproc", simproc.Analyzer)
}

// TestEngineExempt verifies internal/sim itself may start raw goroutines —
// the engine's handoff protocol is the sanctioned home for them — but not
// pin OS threads.
func TestEngineExempt(t *testing.T) {
	checktest.Run(t, "durassd/internal/sim", simproc.Analyzer)
}
