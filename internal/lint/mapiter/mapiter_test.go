package mapiter_test

import (
	"testing"

	"delrep/internal/lint/analysis/analysistest"
	"delrep/internal/lint/mapiter"
)

func TestMapIter(t *testing.T) {
	analysistest.Run(t, "testdata", mapiter.Analyzer, "mapiter")
}
