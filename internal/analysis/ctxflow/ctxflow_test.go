package ctxflow_test

import (
	"testing"

	"servet/internal/analysis/analysistest"
	"servet/internal/analysis/ctxflow"
)

// TestCtxflow covers the non-engine rule (only functions that take a
// context are judged) and the engine fixture, where every root
// context is flagged.
func TestCtxflow(t *testing.T) {
	td := analysistest.TestData(t)
	analysistest.Run(t, td, ctxflow.Analyzer, "ctxflow", "servet/internal/core")
}
