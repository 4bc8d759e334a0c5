package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"delrep/internal/core"
	"delrep/internal/simspec"
)

// TestBenchmarkGoldenDigests replays the benchmark module's golden
// digests (benchmark/golden_digests.json). The benchmark checks them
// only on runs at seed 1, and these are its 17 000-cycle runs in the
// clogged steady state, far past the audit matrix's windows. Each key
// is the benchmark's spec name, GPU+CPU/scheme/topo/wWARM+CYCLES/sSEED.
func TestBenchmarkGoldenDigests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "golden_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatal("no golden digests")
	}
	for key, want := range golden {
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			spec, err := parseSpecName(key)
			if err != nil {
				t.Fatal(err)
			}
			cfg, norm, err := spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			if got := specName(norm); got != key {
				t.Fatalf("key does not round-trip: resolves to %s", got)
			}
			a, err := core.RunAuditCtrl(core.RunControl{}, cfg, norm.GPU, norm.CPU)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%016x", a.Digest); got != want {
				t.Errorf("digest %s, golden %s", got, want)
			}
		})
	}
}

// specName is the benchmark's name for a canonical spec.
func specName(s simspec.Spec) string {
	return fmt.Sprintf("%s+%s/%s/%s/w%d+%d/s%d", s.GPU, s.CPU, s.Scheme, s.Topo, s.Warmup, s.Cycles, s.Seed)
}

// parseSpecName inverts specName.
func parseSpecName(key string) (simspec.Spec, error) {
	var s simspec.Spec
	f := strings.Split(key, "/")
	if len(f) != 5 {
		return s, fmt.Errorf("%q: want 5 /-separated fields", key)
	}
	var ok bool
	if s.GPU, s.CPU, ok = strings.Cut(f[0], "+"); !ok {
		return s, fmt.Errorf("%q: no GPU+CPU pairing", key)
	}
	s.Scheme, s.Topo = f[1], f[2]
	if _, err := fmt.Sscanf(f[3], "w%d+%d", &s.Warmup, &s.Cycles); err != nil {
		return s, fmt.Errorf("%q: windows: %v", key, err)
	}
	if _, err := fmt.Sscanf(f[4], "s%d", &s.Seed); err != nil {
		return s, fmt.Errorf("%q: seed: %v", key, err)
	}
	return s, nil
}
