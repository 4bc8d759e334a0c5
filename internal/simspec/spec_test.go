package simspec

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"delrep/internal/config"
	"delrep/internal/core"
)

// The empty spec plus a workload pairing resolves to the Table I
// baseline, with every default made explicit in the canonical form.
func TestResolveDefaults(t *testing.T) {
	cfg, norm, err := Spec{GPU: "HS", CPU: "vips"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	def := config.Default()
	if !reflect.DeepEqual(cfg, def) {
		t.Fatalf("resolved config differs from config.Default():\n got %+v\nwant %+v", cfg, def)
	}
	want := Spec{
		GPU: "HS", CPU: "vips",
		Scheme: "baseline", Layout: "Baseline", Topo: "mesh", Routing: "cdr",
		L1Org: "private", ChannelBytes: 16, VCDepth: def.NoC.FlitsPerVC,
		Warmup: def.WarmupCycles, Cycles: def.MeasureCycles, Seed: def.Seed,
	}
	if norm != want {
		t.Fatalf("canonical spec = %+v, want %+v", norm, want)
	}
}

// Alias tokens canonicalize; resolving a canonical spec is idempotent.
func TestResolveCanonicalizes(t *testing.T) {
	in := Spec{GPU: "BP", CPU: "dedup", Scheme: "DelegatedReplies", Layout: "b",
		Topo: "FBFLY", Routing: "ADAPTIVE", L1Org: "DC-L1",
		Warmup: 1000, Cycles: 4000, Seed: 7}
	cfg, norm, err := in.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Scheme != "delegated" || norm.Layout != "B" || norm.Topo != "fbfly" ||
		norm.Routing != "adaptive" || norm.L1Org != "dcl1" {
		t.Fatalf("canonical tokens = %+v", norm)
	}
	if cfg.Scheme != config.SchemeDelegatedReplies || cfg.NoC.Topology != config.TopoFlattenedButterfly {
		t.Fatalf("config not applied: %+v", cfg)
	}
	if cfg.NoC.ReqOrder != cfg.Layout.ReqOrder || cfg.NoC.RepOrder != cfg.Layout.RepOrder {
		t.Fatal("layout dimension orders not propagated to the NoC")
	}
	cfg2, norm2, err := norm.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg2, cfg) || norm2 != norm {
		t.Fatal("resolving the canonical spec is not idempotent")
	}
}

// The parallel hint is pure execution strategy: it must not survive
// into the canonical spec (which is run identity) nor perturb the
// resolved configuration.
func TestResolveStripsParallelHint(t *testing.T) {
	plain := Spec{GPU: "HS", CPU: "vips"}
	hinted := plain
	hinted.Parallel = 8
	cfgA, normA, err := plain.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfgB, normB, err := hinted.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if normB.Parallel != 0 {
		t.Fatalf("canonical spec kept the parallel hint: %d", normB.Parallel)
	}
	if !reflect.DeepEqual(cfgA, cfgB) || normA != normB {
		t.Fatal("specs differing only in Parallel must resolve identically")
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []Spec{
		{},                         // no benchmarks
		{GPU: "HS"},                // no CPU
		{GPU: "nope", CPU: "vips"}, // unknown GPU
		{GPU: "HS", CPU: "nope"},   // unknown CPU
		{GPU: "HS", CPU: "vips", Scheme: "turbo"},
		{GPU: "HS", CPU: "vips", Layout: "Z"},
		{GPU: "HS", CPU: "vips", Topo: "torus"},
		{GPU: "HS", CPU: "vips", Routing: "oddeven"},
		{GPU: "HS", CPU: "vips", Routing: "dyxy"},
		{GPU: "HS", CPU: "vips", Routing: "footprint"},
		{GPU: "HS", CPU: "vips", Routing: "HARE"},
		{GPU: "HS", CPU: "vips", L1Org: "shared"},
		{GPU: "HS", CPU: "vips", Cycles: -5}, // Validate rejects
		{GPU: "HS", CPU: "vips", VCDepth: 1_000_000},
		{GPU: "HS", CPU: "vips", Warmup: -5},
		{GPU: "HS", CPU: "vips", Warmup: math.MaxInt64, Cycles: 1},
	}
	for _, c := range cases {
		if _, _, err := c.Resolve(); err == nil {
			t.Errorf("Resolve(%+v) succeeded, want error", c)
		}
	}
}

// An unknown token's error names the canonical values, aliases left out.
func TestUnknownTokenNamesCanonical(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		want string
	}{
		{Spec{GPU: "HS", CPU: "vips", Routing: "HARE"}, `spec: unknown routing "HARE" (want cdr | adaptive)`},
		{Spec{GPU: "HS", CPU: "vips", L1Org: "shared"}, `spec: unknown L1 organisation "shared" (want private | dcl1 | dyneb)`},
	} {
		if _, _, err := c.spec.Resolve(); err == nil || err.Error() != c.want {
			t.Errorf("Resolve(%+v) = %v, want %s", c.spec, err, c.want)
		}
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	for _, bad := range []string{
		`{"gpu":"HS","cpu":"vips","cyclez":5}`,
		`{"gpu":"HS","cpu":"vips"}{"gpu":"BP","cpu":"vips"}`,
		`{"gpu":"HS","cpu":"vips"} xyz`,
		`{"gpu":"HS","cpu":"vips"}]`,
	} {
		if s, err := Read(strings.NewReader(bad)); err == nil {
			t.Errorf("Read(%s) = %+v, want an error", bad, s)
		}
	}
	s, err := Read(strings.NewReader(`{"gpu":"HS","cpu":"vips","warm":500,"cycles":1500}` + " \n\t\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Warmup != 500 || s.Cycles != 1500 {
		t.Fatalf("decoded spec = %+v", s)
	}
}

// The digest renders as fixed-width hex: a uint64 would overflow a
// JSON number's exact integer range.
func TestResultDigestHex(t *testing.T) {
	r := NewResult(Spec{GPU: "HS", CPU: "vips"}, core.Results{}, 0xdeadbeefcafef00d)
	if r.Digest != "deadbeefcafef00d" {
		t.Fatalf("digest = %q", r.Digest)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"digest":"deadbeefcafef00d"`) {
		t.Fatalf("marshalled result: %s", b)
	}
}

// FromConfig is the inverse of Resolve for every config a wire spec
// can express — the property the fleet client relies on to route runs
// to workers that will reconstruct the identical config from the spec.
func TestFromConfigRoundTrip(t *testing.T) {
	specs := []Spec{
		{GPU: "HS", CPU: "vips"},
		{GPU: "BP", CPU: "dedup", Scheme: "delegated", Layout: "B",
			Topo: "fbfly", Routing: "adaptive", L1Org: "dcl1",
			ChannelBytes: 32, VCDepth: 8, Warmup: 1000, Cycles: 4000, Seed: 7},
		{GPU: "LUD", CPU: "x264", Scheme: "rp", Warmup: 500, Cycles: 2500, Seed: 3},
	}
	for _, in := range specs {
		cfg, norm, err := in.Resolve()
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		back, err := FromConfig(cfg, norm.GPU, norm.CPU)
		if err != nil {
			t.Fatalf("%+v: FromConfig: %v", in, err)
		}
		if back != norm {
			t.Errorf("round trip changed the spec:\n got %+v\nwant %+v", back, norm)
		}
	}
}

// A config mutated off the expressible surface must be rejected, not
// silently approximated — shipping a near-miss spec to a worker would
// return results for the wrong simulation.
func TestFromConfigRejectsInexpressible(t *testing.T) {
	cfg, norm, err := Spec{GPU: "HS", CPU: "vips"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoC.VCsPerClass = 3 // a knob with no wire-spec field
	if _, err := FromConfig(cfg, norm.GPU, norm.CPU); err == nil {
		t.Fatal("FromConfig accepted a config the wire spec cannot express")
	} else if !strings.Contains(err.Error(), "cannot express") {
		t.Fatalf("unexpected error: %v", err)
	}
}
