package runner

import (
	"os"
	"path/filepath"
	"testing"

	"delrep/internal/config"
	"delrep/internal/core"
)

func openTestCache(t *testing.T) *DiskCache {
	t.Helper()
	c, err := OpenDiskCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDiskCacheRoundTrip(t *testing.T) {
	c := openTestCache(t)
	res := core.Results{Cycles: 42, GPUIPC: 1.25, RepFlits: 7}
	if err := c.Put("k1", 0xdeadbeef, res); err != nil {
		t.Fatal(err)
	}
	got, digest, ok := c.Get("k1")
	if !ok || digest != 0xdeadbeef || got != res {
		t.Fatalf("roundtrip: ok=%v digest=%x res=%+v", ok, digest, got)
	}
	if _, _, ok := c.Get("k2"); ok {
		t.Fatal("unknown key hit")
	}
	// By address: the same entry, and presence without opening it.
	if got, digest, ok := c.GetAddr(CacheAddr("k1")); !ok || digest != 0xdeadbeef || got != res {
		t.Fatalf("by address: ok=%v digest=%x res=%+v", ok, digest, got)
	}
	if !c.HasAddr(CacheAddr("k1")) || c.HasAddr(CacheAddr("k2")) {
		t.Fatalf("HasAddr: stored %v, unknown %v; want true, false", c.HasAddr(CacheAddr("k1")), c.HasAddr(CacheAddr("k2")))
	}
}

func TestDiskCacheCorruptionTolerance(t *testing.T) {
	c := openTestCache(t)
	if err := c.Put("k", 1, core.Results{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	// Corrupt every entry in the directory.
	files, err := filepath.Glob(filepath.Join(c.Dir(), "*.run"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache files (%v)", err)
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte("not a cache entry"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, _, ok := c.GetAddr(CacheAddr("k")); ok {
		t.Fatal("corrupt entry served as a hit by address")
	}
	// Presence is all HasAddr attests: its caller holds the verified
	// result already.
	if !c.HasAddr(CacheAddr("k")) {
		t.Fatal("HasAddr opened the entry")
	}
	// A fresh Put must repair the entry in place.
	if err := c.Put("k", 2, core.Results{Cycles: 10}); err != nil {
		t.Fatal(err)
	}
	if res, digest, ok := c.Get("k"); !ok || digest != 2 || res.Cycles != 10 {
		t.Fatalf("repaired entry not served: ok=%v digest=%d res=%+v", ok, digest, res)
	}
}

// TestEngineWarmCache checks the cross-process reuse contract: a
// second engine sharing the cache directory performs zero simulations
// and returns bit-identical results and digests.
func TestEngineWarmCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	specs := tinySpecs()

	cold, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldEng := New(Options{Workers: 4, Cache: cold})
	first := runAll(coldEng, specs)
	if c := coldEng.Snapshot(); c.Executed != int64(len(specs)) {
		t.Fatalf("cold engine executed %d, want %d", c.Executed, len(specs))
	}

	warm, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Workers: 4, Cache: warm})
	second := runAll(eng, specs)
	c := eng.Snapshot()
	if c.Executed != 0 {
		t.Errorf("warm cache executed %d simulations, want 0", c.Executed)
	}
	if c.DiskHits != int64(len(specs)) {
		t.Errorf("disk hits %d, want %d", c.DiskHits, len(specs))
	}
	for i := range specs {
		if second[i].Source != SourceDisk {
			t.Errorf("run %d source %s, want disk", i, second[i].Source)
		}
		if second[i].Results != first[i].Results || second[i].Digest != first[i].Digest {
			t.Errorf("run %d: cached result differs from executed result", i)
		}
	}
}

// TestEngineCorruptCacheRecovers checks that a corrupted cache entry
// degrades to a re-execution, not an error or a wrong result.
func TestEngineCorruptCacheRecovers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	spec := Spec{Cfg: tinyCfg(config.SchemeBaseline), GPU: "HS", CPU: "vips"}

	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := New(Options{Workers: 1, Cache: cache}).Run(spec)

	files, _ := filepath.Glob(filepath.Join(dir, "*.run"))
	if len(files) != 1 {
		t.Fatalf("expected 1 cache entry, found %d", len(files))
	}
	if err := os.Truncate(files[0], 3); err != nil {
		t.Fatal(err)
	}

	eng := New(Options{Workers: 1, Cache: cache})
	second := eng.Run(spec)
	if second.Source != SourceExecuted {
		t.Errorf("corrupt entry source %s, want executed", second.Source)
	}
	if second.Results != first.Results || second.Digest != first.Digest {
		t.Error("re-executed run differs from original")
	}
	// The repaired entry serves the next engine from disk.
	third := New(Options{Workers: 1, Cache: cache}).Run(spec)
	if third.Source != SourceDisk || third.Results != first.Results {
		t.Errorf("repair not persisted: source %s", third.Source)
	}
}
