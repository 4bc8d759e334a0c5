package runner

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"delrep/internal/core"
)

func TestDefaultCacheDirEnvOverride(t *testing.T) {
	t.Setenv("DELREP_CACHE_DIR", "/tmp/delrep-cache-env-test")
	dir, err := DefaultCacheDir()
	if err != nil {
		t.Fatal(err)
	}
	if dir != "/tmp/delrep-cache-env-test" {
		t.Fatalf("DefaultCacheDir = %q, want the DELREP_CACHE_DIR value", dir)
	}
}

func TestPruneOldestFirst(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The oldest file is a .blob entry an older build left in a shared
	// directory: Size counts it and Prune removes it like any entry.
	stale := filepath.Join(dir, CacheAddr("narrative")+".blob")
	if err := os.WriteFile(stale, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	keys := []string{"old", "mid", "new"}
	paths := []string{stale}
	for i, k := range keys {
		if err := cache.Put(k, uint64(i), core.Results{Cycles: int64(i)}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, cache.path(k))
	}
	var sizes []int64
	base := time.Now().Add(-time.Hour)
	for i, path := range paths {
		// Stamp distinct mtimes so the eviction order is deterministic.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	total, err := cache.Size()
	if err != nil {
		t.Fatal(err)
	}
	if want := sizes[0] + sizes[1] + sizes[2] + sizes[3]; total != want {
		t.Fatalf("Size = %d, want %d", total, want)
	}

	// Prune to budgets that force exactly the oldest file out, then the
	// oldest run entry.
	for i, budget := range []int64{total - 1, total - sizes[0] - 1} {
		removed, freed, err := cache.Prune(budget)
		if err != nil {
			t.Fatal(err)
		}
		if removed != 1 || freed != sizes[i] {
			t.Fatalf("Prune(%d) removed %d (freed %d), want 1 (freed %d)", budget, removed, freed, sizes[i])
		}
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale .blob entry survived the prune: %v", err)
	}
	if _, _, ok := cache.Get("old"); ok {
		t.Fatal("oldest run entry survived the prune")
	}
	for _, k := range keys[1:] {
		if _, _, ok := cache.Get(k); !ok {
			t.Fatalf("entry %q was pruned out of order", k)
		}
	}

	// Prune to zero clears everything but leaves the directory usable.
	if _, _, err := cache.Prune(0); err != nil {
		t.Fatal(err)
	}
	if total, _ := cache.Size(); total != 0 {
		t.Fatalf("Size after Prune(0) = %d, want 0", total)
	}
	if err := cache.Put("again", 0, core.Results{}); err != nil {
		t.Fatalf("cache unusable after full prune: %v", err)
	}
	if filepath.Dir(cache.path("again")) != dir {
		t.Fatal("cache path escaped its directory")
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1048576", 1 << 20, true},
		{"4K", 4 << 10, true},
		{"512M", 512 << 20, true},
		{"2G", 2 << 30, true},
		{"2GB", 2 << 30, true},
		{"2GiB", 2 << 30, true},
		{"1T", 1 << 40, true},
		{" 3 M ", 3 << 20, true},
		{"", 0, false},
		{"-1", 0, false},
		{"12Q", 0, false},
		{"M", 0, false},
		// A product past int64 must fail, not wrap to 0 (prune
		// everything) or below 0 (clamped to 0, or pruning off).
		{"16777216T", 0, false},
		{"8388608T", 0, false},
		{"9223372036854775807K", 0, false},
		{"8388607T", 8388607 << 40, true},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParseSize(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}
