package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenDigests is the cross-commit behaviour gate: the audit
// matrix regenerated by this build must equal the committed output of
// the build that last intentionally changed simulated behaviour — the
// goldens were produced by the separate serial tick at the last commit
// that had one. default.golden is
// `digestdump` with no flags; long.golden is `-warm 1500 -cycles 3000
// -seeds 1,7`, long enough to cross kernel-boundary flushes and DynEB
// organisation switches under congestion. A legitimate behaviour change regenerates
// both files (and bumps the runner cache salt, DESIGN.md §11).
func TestGoldenDigests(t *testing.T) {
	cases := []struct {
		golden       string
		seeds        string
		warm, cycles int64
		long         bool
	}{
		{"default.golden", "1,7,99", 200, 450, false},
		{"long.golden", "1,7", 1500, 3000, true},
	}
	for _, c := range cases {
		if c.long && testing.Short() {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		wantLines := strings.Split(string(want), "\n")
		var got bytes.Buffer
		if err := dump(&got, c.seeds, c.warm, c.cycles); err != nil {
			t.Fatal(err)
		}
		gotLines := strings.Split(got.String(), "\n")
		if len(gotLines) != len(wantLines) {
			t.Fatalf("%s: %d lines, golden has %d", c.golden, len(gotLines), len(wantLines))
		}
		for i := range gotLines {
			if gotLines[i] != wantLines[i] {
				t.Errorf("%s: digest drifted from the committed golden\n got  %s\n want %s",
					c.golden, gotLines[i], wantLines[i])
			}
		}
	}
}
