package runner

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"delrep/internal/config"
	"delrep/internal/core"
)

// tinyCfg returns a configuration with test-sized windows: these tests
// run real simulations.
func tinyCfg(scheme config.Scheme) config.Config {
	cfg := config.Default()
	cfg.Scheme = scheme
	cfg.WarmupCycles = 300
	cfg.MeasureCycles = 800
	return cfg
}

// tinySpecs returns a small spec set spanning schemes and benchmarks.
func tinySpecs() []Spec {
	var specs []Spec
	for _, scheme := range []config.Scheme{config.SchemeBaseline, config.SchemeDelegatedReplies} {
		for _, g := range []string{"HS", "BP"} {
			specs = append(specs, Spec{Cfg: tinyCfg(scheme), GPU: g, CPU: "vips"})
		}
	}
	return specs
}

// TestParallelSerialEquivalence is the end-to-end determinism proof:
// a serial engine, a wide parallel engine, and direct in-place
// execution must agree bit-for-bit on every result and on the
// determinism-audit digest of every run.
func TestParallelSerialEquivalence(t *testing.T) {
	specs := tinySpecs()

	serial := runAll(New(Options{Workers: 1}), specs)
	parallel := runAll(New(Options{Workers: 8}), specs)

	for i, spec := range specs {
		direct := core.RunAudit(spec.Cfg, spec.GPU, spec.CPU)
		if serial[i].Digest != direct.Digest {
			t.Errorf("spec %d: serial digest %x != direct digest %x", i, serial[i].Digest, direct.Digest)
		}
		if parallel[i].Digest != serial[i].Digest {
			t.Errorf("spec %d: parallel digest %x != serial digest %x", i, parallel[i].Digest, serial[i].Digest)
		}
		if parallel[i].Results != serial[i].Results {
			t.Errorf("spec %d: parallel results differ from serial:\n%+v\n%+v",
				i, parallel[i].Results, serial[i].Results)
		}
		if serial[i].Results != direct.Results {
			t.Errorf("spec %d: engine results differ from direct execution", i)
		}
	}
}

// runAll submits every spec, then waits on each future in spec order.
func runAll(e *Engine, specs []Spec) []Run {
	futs := make([]*Future, len(specs))
	for i, s := range specs {
		futs[i] = e.Submit(s)
	}
	runs := make([]Run, len(futs))
	for i, f := range futs {
		runs[i] = f.Wait()
	}
	return runs
}

// TestBatchDeclarationOrder checks that a batch of runs submitted up
// front and waited on in declaration order comes back in that order
// with the declared specs attached.
func TestBatchDeclarationOrder(t *testing.T) {
	specs := tinySpecs()
	runs := runAll(New(Options{Workers: 4}), specs)
	if len(runs) != len(specs) {
		t.Fatalf("%d runs, want %d", len(runs), len(specs))
	}
	for i, r := range runs {
		if r.Spec.GPU != specs[i].GPU || r.Spec.Cfg.Scheme != specs[i].Cfg.Scheme {
			t.Errorf("run %d delivered out of declaration order: got %s/%s want %s/%s",
				i, r.Spec.GPU, r.Spec.Cfg.Scheme, specs[i].GPU, specs[i].Cfg.Scheme)
		}
		if r.Results.Cycles == 0 {
			t.Errorf("run %d: empty results", i)
		}
	}
}

// TestMemoDedup checks that duplicate submissions share one execution
// and one Future, including when submitted concurrently.
func TestMemoDedup(t *testing.T) {
	e := New(Options{Workers: 4})
	spec := Spec{Cfg: tinyCfg(config.SchemeBaseline), GPU: "HS", CPU: "vips"}

	var wg sync.WaitGroup
	futs := make([]*Future, 8)
	for i := range futs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			futs[i] = e.Submit(spec)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(futs); i++ {
		if futs[i] != futs[0] {
			t.Fatal("duplicate submissions did not share a future")
		}
	}
	a := futs[0].Wait()
	c := e.Snapshot()
	if c.Executed != 1 {
		t.Errorf("executed %d simulations, want 1", c.Executed)
	}
	if c.MemoHits != int64(len(futs)-1) {
		t.Errorf("memo hits %d, want %d", c.MemoHits, len(futs)-1)
	}
	// A later submission shares the same future (and its original
	// Source); only the counters record the extra memo hit.
	if b := e.Run(spec); b.Results != a.Results {
		t.Error("re-run returned different results")
	}
	if c := e.Snapshot(); c.Executed != 1 || c.MemoHits != int64(len(futs)) {
		t.Errorf("after re-run: executed %d, memo hits %d", c.Executed, c.MemoHits)
	}
}

// TestProgressSerialized checks that concurrent progress lines are not
// interleaved mid-line.
func TestProgressSerialized(t *testing.T) {
	var buf syncBuffer
	e := New(Options{Workers: 4, Progress: &buf})
	runAll(e, tinySpecs())
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "  run ") || !strings.HasSuffix(line, "...") {
			t.Errorf("malformed progress line: %q", line)
		}
	}
}

// syncBuffer serializes writes; the engine already serializes its own,
// but the test must not race with them while reading.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestKeyDistinguishesConfigs is the regression test for cache-key
// aliasing: every run-identifying mutation — most importantly the
// warm-up and measurement windows, which an early hand-picked key
// omitted — must change the key. That every field is rendered at all is
// config's TestAppendKeyMatchesSprintf; this test checks that the
// rendering reaches the key.
func TestKeyDistinguishesConfigs(t *testing.T) {
	base := config.Default()
	mutations := []func(*config.Config){
		func(c *config.Config) { c.Scheme = config.SchemeDelegatedReplies },
		func(c *config.Config) { c.NoC.Topology = config.TopoCrossbar },
		func(c *config.Config) { c.NoC.Routing = config.RoutingAdaptive },
		func(c *config.Config) { c.NoC.ChannelBytes = 32 },
		func(c *config.Config) { c.NoC.InjectionBuf = 16 },
		func(c *config.Config) { c.NoC.SharedPhys = true; c.NoC.ReqVCs, c.NoC.RepVCs = 1, 3 },
		func(c *config.Config) { c.GPU.L1Bytes = 64 * 1024 },
		func(c *config.Config) { c.GPU.Org = config.L1DynEB },
		func(c *config.Config) { c.GPU.CTASched = config.CTADistributed },
		func(c *config.Config) { c.GPU.FRQEntries = 2 },
		func(c *config.Config) { c.LLC.SliceBytes = 2 << 20 },
		func(c *config.Config) { c.Layout = config.LayoutB() },
		func(c *config.Config) { c.Layout = config.ScaledBaseline(10, 10) },
		func(c *config.Config) { c.DelRep.MaxDelegationsPerCycle = 4 },
		func(c *config.Config) { c.DelRep.AlwaysDelegate = true },
		func(c *config.Config) { c.Seed = 99 },
		// The aliasing bug this test guards against: -quick and full
		// runs differ only in their windows.
		func(c *config.Config) { c.WarmupCycles = 5_000 },
		func(c *config.Config) { c.MeasureCycles = 12_000 },
		func(c *config.Config) { c.WarmupCycles, c.MeasureCycles = 5_000, 12_000 },
	}
	seen := map[string]int{Key(base, "HS", "vips"): -1}
	for i, mut := range mutations {
		cfg := config.Default()
		mut(&cfg)
		k := Key(cfg, "HS", "vips")
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %d collides with %d: %s", i, prev, k)
		}
		seen[k] = i
	}
	if Key(base, "HS", "vips") != Key(base, "HS", "vips") {
		t.Error("key is not deterministic")
	}
	if Key(base, "HS", "vips") == Key(base, "NN", "vips") {
		t.Error("key ignores the GPU benchmark")
	}
	if Key(base, "HS", "vips") == Key(base, "HS", "dedup") {
		t.Error("key ignores the CPU benchmark")
	}
}

// ParseSource inverts String for every Source String names, and
// refuses any other name, String's own "???" included.
func TestParseSourceRoundTrip(t *testing.T) {
	n := 0
	for s := Source(0); s.String() != "???"; s++ {
		if got, err := ParseSource(s.String()); err != nil || got != s {
			t.Errorf("ParseSource(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
		n++
	}
	if n != 3 {
		t.Errorf("String names %d sources, want executed, memo and disk", n)
	}
	for _, name := range []string{"cached", "", "???", "Executed"} {
		if got, err := ParseSource(name); err == nil {
			t.Errorf("ParseSource(%q) = %v, want an error", name, got)
		}
	}
}
