package runner

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"delrep/internal/config"
	"delrep/internal/simspec"
)

var updateKeys = flag.Bool("update", false, "rewrite testdata/keys.golden from the live run keys")

// A run key's content address names every disk-cache entry and routes
// every fleet key, so its bytes are pinned: a change to what Key
// renders (a Config field, a Stringer, the Version salt) orphans every
// cache and must show in this golden's diff. One address per layout ×
// topology × scheme.
func TestKeyGolden(t *testing.T) {
	var b strings.Builder
	for _, layout := range []string{"baseline", "b", "c", "d"} {
		for _, topo := range []string{"mesh", "fbfly", "dragonfly", "crossbar"} {
			for _, scheme := range []string{"baseline", "delegated", "rp"} {
				spec := simspec.Spec{GPU: "HS", CPU: "vips", Layout: layout, Topo: topo, Scheme: scheme, Seed: 7}
				cfg, norm, err := spec.Resolve()
				if err != nil {
					t.Fatalf("%+v: %v", spec, err)
				}
				fmt.Fprintf(&b, "%s %s %s %s\n", norm.Layout, norm.Topo, norm.Scheme, CacheAddr(Key(cfg, norm.GPU, norm.CPU)))
			}
		}
	}
	got := b.String()
	const golden = "testdata/keys.golden"
	if *updateKeys {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("run key addresses differ from %s (rerun with -update only with a Version salt change or an added or removed Config field, DESIGN.md §11):\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// keySink keeps the measured keys alive.
var keySink string

// Rendering a run key allocates only the returned string: the buffer
// lives on Key's stack. The key is rendered once per submission, on
// the submitting goroutine, so a warm sweep pays it for every run.
func TestKeyAllocs(t *testing.T) {
	cfg := config.Default()
	if n := testing.AllocsPerRun(100, func() { keySink = Key(cfg, "HS", "vips") }); n > 1 {
		t.Errorf("Key allocates %v times per call, want at most 1", n)
	}
}

func BenchmarkKey(b *testing.B) {
	cfg := config.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = Key(cfg, "HS", "vips")
	}
}
