package atomicmix_test

import (
	"testing"

	"delrep/internal/lint/analysis/analysistest"
	"delrep/internal/lint/atomicmix"
)

func TestAtomicmix(t *testing.T) {
	analysistest.Run(t, "testdata", atomicmix.Analyzer, "am")
}
