// Package simspec defines the JSON wire form of one simulation
// request — the spec — shared by the delrepsim CLI (-spec/-json) and
// the delrepd daemon (POST /v1/jobs). A spec names the workload
// pairing and the configuration knobs the CLIs expose; everything it
// leaves unset takes the Table I default, so the empty spec plus a
// workload pairing is the paper's baseline machine.
//
// The package also owns the token vocabulary (scheme, layout,
// topology, routing, L1 organisation) — delrepsim's flags fill in a
// Spec, so flags and JSON accept exactly the same spellings — and the
// canonical Result rendering, so a result served by the daemon is
// byte-comparable with one printed by delrepsim -json.
package simspec

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/workload"
)

// Spec is the JSON form of one simulation request. Zero-valued fields
// default to the delrepsim flag defaults (the Table I baseline).
type Spec struct {
	GPU          string `json:"gpu"`
	CPU          string `json:"cpu"`
	Scheme       string `json:"scheme,omitempty"`  // baseline | delegated | rp
	Layout       string `json:"layout,omitempty"`  // Baseline | B | C | D
	Topo         string `json:"topo,omitempty"`    // mesh | fbfly | dragonfly | crossbar
	Routing      string `json:"routing,omitempty"` // cdr | dyxy | footprint | hare
	L1Org        string `json:"l1org,omitempty"`   // private | dcl1 | dyneb
	ChannelBytes int    `json:"channel,omitempty"` // NoC channel width in bytes
	VCDepth      int    `json:"vcdepth,omitempty"` // VC buffer depth in flits (0 = default)
	Warmup       int64  `json:"warm,omitempty"`    // warmup cycles
	Cycles       int64  `json:"cycles,omitempty"`  // measured cycles
	Seed         int64  `json:"seed,omitempty"`    // random seed (0 means the default, 1)

	// Parallel is accepted and ignored: clients built before intra-run
	// parallelism left the product still send it, and Resolve zeroes it.
	Parallel int `json:"parallel,omitempty"`
}

// Resolve validates the spec and renders it onto a complete
// configuration. It returns the configuration, the canonicalized spec
// (every default made explicit, every token in canonical spelling) and
// the first validation error. Two specs with equal canonical forms
// resolve to identical configurations, so the canonical spec is a
// stable identity for display and comparison.
func (s Spec) Resolve() (config.Config, Spec, error) {
	var zero config.Config
	norm := s
	if norm.GPU == "" {
		return zero, s, fmt.Errorf("spec: missing gpu benchmark")
	}
	if norm.CPU == "" {
		return zero, s, fmt.Errorf("spec: missing cpu benchmark")
	}
	if !slices.Contains(gpuNames, norm.GPU) {
		return zero, s, fmt.Errorf("spec: unknown gpu benchmark %q (see delrepsim -list)", norm.GPU)
	}
	if !slices.Contains(cpuNames, norm.CPU) {
		return zero, s, fmt.Errorf("spec: unknown cpu benchmark %q (see delrepsim -list)", norm.CPU)
	}

	cfg := config.Default()
	def := cfg

	var err error
	if cfg.Scheme, norm.Scheme, err = parse("scheme", schemeTokens, norm.Scheme); err != nil {
		return zero, s, err
	}
	if cfg.Layout, norm.Layout, err = parseLayout(norm.Layout); err != nil {
		return zero, s, err
	}
	cfg.NoC.ReqOrder = cfg.Layout.ReqOrder
	cfg.NoC.RepOrder = cfg.Layout.RepOrder
	if cfg.NoC.Topology, norm.Topo, err = parse("topology", topoTokens, norm.Topo); err != nil {
		return zero, s, err
	}
	if cfg.NoC.Routing, norm.Routing, err = parse("routing", routingTokens, norm.Routing); err != nil {
		return zero, s, err
	}
	if cfg.GPU.Org, norm.L1Org, err = parse("L1 organisation", orgTokens, norm.L1Org); err != nil {
		return zero, s, err
	}

	if norm.ChannelBytes == 0 {
		norm.ChannelBytes = def.NoC.ChannelBytes
	}
	cfg.NoC.ChannelBytes = norm.ChannelBytes
	if norm.VCDepth == 0 {
		norm.VCDepth = def.NoC.FlitsPerVC
	}
	cfg.NoC.FlitsPerVC = norm.VCDepth
	if norm.Warmup == 0 {
		norm.Warmup = def.WarmupCycles
	}
	cfg.WarmupCycles = norm.Warmup
	if norm.Cycles == 0 {
		norm.Cycles = def.MeasureCycles
	}
	cfg.MeasureCycles = norm.Cycles
	if norm.Seed == 0 {
		norm.Seed = def.Seed
	}
	cfg.Seed = norm.Seed
	norm.Parallel = 0

	if err := cfg.Validate(); err != nil {
		return zero, s, fmt.Errorf("spec: %v", err)
	}
	return cfg, norm, nil
}

// FromConfig renders a resolved configuration back into its canonical
// wire spec — the inverse of Resolve, used by fleet clients that hold
// a runner.Spec (full Config) and need the JSON form to ship. Not
// every Config is expressible: experiments mutate knobs (L1 geometry,
// VC counts, buffer depths, …) the wire spec does not carry, and
// shipping a lossy spec would silently simulate the wrong machine. So
// the candidate spec is re-resolved and the round trip verified
// field-for-field; any residue returns an error and the caller runs
// that configuration locally instead.
func FromConfig(cfg config.Config, gpu, cpu string) (Spec, error) {
	s := Spec{
		GPU:          gpu,
		CPU:          cpu,
		Scheme:       canon(schemeTokens, cfg.Scheme),
		Layout:       cfg.Layout.Name,
		Topo:         canon(topoTokens, cfg.NoC.Topology),
		Routing:      canon(routingTokens, cfg.NoC.Routing),
		L1Org:        canon(orgTokens, cfg.GPU.Org),
		ChannelBytes: cfg.NoC.ChannelBytes,
		VCDepth:      cfg.NoC.FlitsPerVC,
		Warmup:       cfg.WarmupCycles,
		Cycles:       cfg.MeasureCycles,
		Seed:         cfg.Seed,
	}
	back, _, err := s.Resolve()
	if err != nil {
		return Spec{}, fmt.Errorf("spec: config does not round-trip: %v", err)
	}
	// %+v equality is exactly the runner cache-key equality: equal
	// renderings are guaranteed to be the same simulation.
	if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", cfg) {
		return Spec{}, fmt.Errorf("spec: config carries knobs the wire spec cannot express")
	}
	return s, nil
}

// Read decodes one spec from JSON, rejecting unknown fields (a typoed
// knob silently falling back to its default would be a miserable way
// to lose a sweep).
func Read(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: %v", err)
	}
	return s, nil
}

// Result is the canonical rendering of one completed simulation: the
// canonical spec it ran, the full results, and the determinism-audit
// digest of the end state as 16 hex digits (a JSON number could not
// hold a uint64 exactly). delrepsim -json prints exactly this object;
// the daemon embeds it as the "result" field of a job, so the two can
// be compared field-for-field.
type Result struct {
	Spec    Spec         `json:"spec"`
	Results core.Results `json:"results"`
	Digest  string       `json:"digest"`
}

// NewResult builds a Result from a canonical spec and a finished run.
func NewResult(spec Spec, res core.Results, digest uint64) Result {
	return Result{Spec: spec, Results: res, Digest: fmt.Sprintf("%016x", digest)}
}

// token is one accepted spelling of a knob value. In each table the
// first entry is the default (what an empty field means) and the first
// spelling of a value is its canonical one.
type token[T comparable] struct {
	name string
	val  T
}

var (
	// The benchmark names Resolve accepts, listed once: the workload
	// tables build their profiles afresh on every call.
	gpuNames, cpuNames = workload.GPUNames(), workload.CPUNames()

	schemeTokens = []token[config.Scheme]{
		{"baseline", config.SchemeBaseline},
		{"delegated", config.SchemeDelegatedReplies},
		{"dr", config.SchemeDelegatedReplies},
		{"delegatedreplies", config.SchemeDelegatedReplies},
		{"rp", config.SchemeRP},
	}
	topoTokens = []token[config.Topology]{
		{"mesh", config.TopoMesh},
		{"fbfly", config.TopoFlattenedButterfly},
		{"dragonfly", config.TopoDragonfly},
		{"crossbar", config.TopoCrossbar},
	}
	routingTokens = []token[config.RoutingAlg]{
		{"cdr", config.RoutingCDR},
		{"dyxy", config.RoutingDyXY},
		{"footprint", config.RoutingFootprint},
		{"hare", config.RoutingHARE},
	}
	orgTokens = []token[config.L1Org]{
		{"private", config.L1Private},
		{"dcl1", config.L1DCL1},
		{"dc-l1", config.L1DCL1},
		{"dyneb", config.L1DynEB},
	}
)

// parse looks a token up (case-insensitively; empty means the default)
// and returns its value and canonical spelling.
func parse[T comparable](what string, toks []token[T], s string) (T, string, error) {
	if s == "" {
		s = toks[0].name
	}
	for _, t := range toks {
		if t.name == strings.ToLower(s) {
			return t.val, canon(toks, t.val), nil
		}
	}
	var zero T
	return zero, "", fmt.Errorf("spec: unknown %s %q", what, s)
}

// canon returns the canonical spelling of a knob value.
func canon[T comparable](toks []token[T], v T) string {
	for _, t := range toks {
		if t.val == v {
			return t.name
		}
	}
	return toks[0].name
}

// parseLayout parses a chip-layout token (Baseline | B | C | D) and
// returns the layout and its canonical name.
func parseLayout(s string) (config.Layout, string, error) {
	var l config.Layout
	switch strings.ToLower(s) {
	case "", "baseline", "a":
		l = config.BaselineLayout()
	case "b":
		l = config.LayoutB()
	case "c":
		l = config.LayoutC()
	case "d":
		l = config.LayoutD()
	default:
		return l, "", fmt.Errorf("spec: unknown layout %q", s)
	}
	return l, l.Name, nil
}
