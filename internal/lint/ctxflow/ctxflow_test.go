package ctxflow_test

import (
	"testing"

	"delrep/internal/lint/analysis/analysistest"
	"delrep/internal/lint/ctxflow"
)

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, "testdata", ctxflow.Analyzer, "cf")
}
