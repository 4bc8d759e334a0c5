package runner

import (
	"context"
	"os"
	"testing"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/telemetry"
)

// A traced submission records the cache/engine span structure; a
// deduplicated submission of the same spec records dedup.join on its
// own trace.
func TestSubmitCtxSpans(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Workers: 2, Cache: cache})
	spec := Spec{Cfg: tinyCfg(config.SchemeBaseline), GPU: "HS", CPU: "vips"}

	tr := telemetry.New("job")
	ctx := telemetry.ContextWithSpan(context.Background(), tr.Root())
	run := eng.SubmitCtx(ctx, spec).Wait()
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	tr.End()
	v := tr.Snapshot()
	look, ok := v.Find("cache.lookup")
	if !ok || look.Attrs["hit"] != false {
		t.Fatalf("cache.lookup span = %+v ok=%v, want recorded miss", look, ok)
	}
	engRun, ok := v.Find("engine.run")
	if !ok {
		t.Fatal("engine.run span missing")
	}
	if len(engRun.Children) == 0 {
		t.Fatal("engine.run has no window spans")
	}
	if _, ok := engRun.Find("window 0"); !ok {
		t.Fatalf("window 0 span missing: %+v", engRun.Children)
	}

	// Same spec again: a fresh submission this process hits the memo
	// (the future is retained), so the joiner's trace records
	// dedup.join and none of the execution detail.
	tr2 := telemetry.New("job2")
	ctx2 := telemetry.ContextWithSpan(context.Background(), tr2.Root())
	if run2 := eng.SubmitCtx(ctx2, spec).Wait(); run2.Digest != run.Digest {
		t.Fatalf("deduped digest %x != original %x", run2.Digest, run.Digest)
	}
	v2 := tr2.Snapshot()
	if _, ok := v2.Find("dedup.join"); !ok {
		t.Fatalf("dedup.join span missing from joiner trace: %+v", v2)
	}
	if _, ok := v2.Find("engine.run"); ok {
		t.Fatal("joiner trace has the owner's engine.run span")
	}

	// A fresh engine over the warm cache records a cache.lookup hit.
	eng2 := New(Options{Workers: 1, Cache: cache})
	tr3 := telemetry.New("job3")
	ctx3 := telemetry.ContextWithSpan(context.Background(), tr3.Root())
	if run3 := eng2.SubmitCtx(ctx3, spec).Wait(); run3.Source != SourceDisk {
		t.Fatalf("warm-cache source = %v, want disk", run3.Source)
	}
	if look, ok := tr3.Snapshot().Find("cache.lookup"); !ok || look.Attrs["hit"] != true {
		t.Fatalf("warm cache.lookup span = %+v ok=%v, want recorded hit", look, ok)
	}
}

// Cache lookups count hits, misses, and corrupt entries distinctly.
func TestDiskCacheStats(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("fresh stats = %+v", s)
	}
	if _, _, ok := c.Get("missing"); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put("k", 42, core.Results{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get("k"); !ok {
		t.Fatal("miss on stored entry")
	}
	// Corrupt the entry in place: the next Get degrades to a miss and
	// counts the corruption.
	path := c.path("k")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("hit on corrupt entry")
	}
	got := c.Stats()
	want := CacheStats{Hits: 1, Misses: 1, Corrupt: 1}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
	// A nil cache answers zero stats without a guard at the caller.
	var nilCache *DiskCache
	if s := nilCache.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
}

// KeyHash is short, hex, and distinguishes configs exactly as Key does.
func TestKeyHash(t *testing.T) {
	a := tinyCfg(config.SchemeBaseline)
	b := a
	b.Seed++
	ha := KeyHash(a, "HS", "vips")
	hb := KeyHash(b, "HS", "vips")
	if len(ha) != 12 || len(hb) != 12 {
		t.Fatalf("hash lengths = %d, %d, want 12", len(ha), len(hb))
	}
	if ha == hb {
		t.Fatal("distinct configs share a key hash")
	}
	if ha != KeyHash(a, "HS", "vips") {
		t.Fatal("KeyHash is not stable")
	}
}
