package mapiter_test

import (
	"testing"

	"delrep/internal/lint/analysis/analysistest"
	"delrep/internal/lint/mapiter"
)

func TestMapIter(t *testing.T) {
	analysistest.Run(t, "testdata", mapiter.Analyzer, "mapiter")
}

// TestMapIterStagingRoots checks the second root set: functions that touch
// a fifo.Stash-bearing value, reached without any per-cycle entry point.
func TestMapIterStagingRoots(t *testing.T) {
	analysistest.Run(t, "testdata", mapiter.Analyzer, "staging")
}
