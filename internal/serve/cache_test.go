package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"delrep/internal/core"
	"delrep/internal/jobapi"
	"delrep/internal/runner"
)

// cacheGet performs GET /v1/cache/{addr}, with If-None-Match when
// validator is not empty, and returns the response with its body read.
func cacheGet(t *testing.T, base, addr, validator string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/cache/"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if validator != "" {
		req.Header.Set("If-None-Match", validator)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// GET /v1/cache/{key} exposes the daemon's disk cache as a shard of
// the fleet's distributed cache tier: 200 with the stored results on a
// hit, 404 on a miss or when running uncached — and, the address being
// its own validator, 304 without a body to a caller that names it.
func TestCacheEndpoint(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "cache")
	cache, err := runner.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(runner.Options{Workers: 1, Cache: cache})
	_, ts := newTestServer(t, Options{Engine: eng})

	spec := shortSpec(601)
	cfg, norm, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	addr := runner.CacheAddr(runner.Key(cfg, norm.GPU, norm.CPU))
	etag := `"` + addr + `"`

	// Before any run: a miss, validator or not.
	for _, validator := range []string{"", etag} {
		if resp, _ := cacheGet(t, ts.URL, addr, validator); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("cold cache, If-None-Match %q: status %d, want 404", validator, resp.StatusCode)
		}
	}

	view, _ := submit(t, ts, jobapi.SubmitRequest{Spec: spec}, "?wait=1")
	if view.Status != jobapi.StatusDone || view.Result == nil {
		t.Fatalf("job ended %s", view.Status)
	}

	resp, plain := cacheGet(t, ts.URL, addr, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm cache: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != etag {
		t.Errorf("200 carries ETag %q, want %q", got, etag)
	}
	var entry jobapi.CacheEntry
	if err := json.Unmarshal(plain, &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Results != view.Result.Results {
		t.Errorf("cache entry results differ from the job's")
	}
	if entry.Digest != view.Result.Digest {
		t.Errorf("cache digest %s != job digest %s", entry.Digest, view.Result.Digest)
	}

	// The matching validator: 304, nothing else on the wire.
	resp, body := cacheGet(t, ts.URL, addr, etag)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 || resp.Header.Get("ETag") != etag {
		t.Errorf("revalidation: status %d, %d body bytes, ETag %q; want 304, none, %s",
			resp.StatusCode, len(body), resp.Header.Get("ETag"), etag)
	}
	// Any other validator: the unchanged 200 bytes.
	for _, validator := range []string{`"` + fmt.Sprintf("%064x", 1) + `"`, addr, "*"} {
		resp, body := cacheGet(t, ts.URL, addr, validator)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, plain) {
			t.Errorf("If-None-Match %s: status %d, body equal %v; want the plain 200", validator, resp.StatusCode, bytes.Equal(body, plain))
		}
	}

	// A bogus address is a plain miss, not an error — and a validator
	// vouching for it does not make it exist.
	bogus := fmt.Sprintf("%064x", 0)
	for _, validator := range []string{"", `"` + bogus + `"`} {
		if resp, _ := cacheGet(t, ts.URL, bogus, validator); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("bogus key, If-None-Match %q: status %d, want 404", validator, resp.StatusCode)
		}
	}

	// An address that would leave the cache dir is refused before the
	// filesystem is asked: this one is 64 characters long and names a
	// file that exists, one level up.
	escape := ".." + string(filepath.Separator) + strings.Repeat("e", 61)
	if err := os.WriteFile(filepath.Join(root, escape[3:]+".run"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if cache.HasAddr(escape) {
		t.Error("HasAddr vouched for a file outside the cache dir")
	}
	before := cache.Stats()
	for _, e := range []string{"..%2F" + escape[3:], "..%5C" + escape[3:]} {
		if resp, _ := cacheGet(t, ts.URL, e, `"`+escape+`"`); resp.StatusCode != http.StatusNotFound {
			t.Errorf("path-escaping address %s with a validator: status %d, want 404", e, resp.StatusCode)
		}
	}
	if after := cache.Stats(); after != before {
		t.Errorf("a refused address reached the lookup: stats %+v → %+v", before, after)
	}
}

// An uncached daemon reports every probe as a miss.
func TestCacheEndpointUncached(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	addr := fmt.Sprintf("%064x", 1)
	for _, validator := range []string{"", `"` + addr + `"`} {
		if resp, _ := cacheGet(t, ts.URL, addr, validator); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("uncached daemon, If-None-Match %q: status %d, want 404", validator, resp.StatusCode)
		}
	}
}

// lockedBuffer is a bytes.Buffer the daemon's workers can log into
// while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCacheMaxBytesBoundsDisk pins -cache-max: with a bound that holds
// two entries, every executed job leaves the disk cache within the
// bound (the prune runs after the reply, so the test waits for it), the
// prune is logged, and the newest entries are the ones kept.
func TestCacheMaxBytesBoundsDisk(t *testing.T) {
	key := func(seed int64) string {
		cfg, norm, err := shortSpec(seed).Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return runner.Key(cfg, norm.GPU, norm.CPU)
	}
	// An entry's size depends only on its key's length, which the
	// seeds below share.
	sizer, err := runner.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := sizer.Put(key(61), 0, core.Results{}); err != nil {
		t.Fatal(err)
	}
	entry, err := sizer.Size()
	if err != nil {
		t.Fatal(err)
	}
	bound := 2*entry + entry/2

	cache, err := runner.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log lockedBuffer
	_, ts := newTestServer(t, Options{
		Engine:        runner.New(runner.Options{Workers: 1, Cache: cache}),
		CacheMaxBytes: bound,
		Logger:        slog.New(slog.NewTextHandler(&log, nil)),
	})
	seeds := []int64{61, 62, 63, 64}
	for _, seed := range seeds {
		v, _ := submit(t, ts, jobapi.SubmitRequest{Spec: shortSpec(seed)}, "?wait=1")
		if v.Status != jobapi.StatusDone || v.Source != "executed" {
			t.Fatalf("seed %d: job %s from %q (%s)", seed, v.Status, v.Source, v.Error)
		}
		size, err := cache.Size()
		for deadline := time.Now().Add(5 * time.Second); err == nil && size > bound && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			size, err = cache.Size()
		}
		if err != nil || size > bound {
			t.Fatalf("seed %d: cache holds %d bytes (%v), bound %d", seed, size, err, bound)
		}
	}
	if !strings.Contains(log.String(), `msg="cache pruned"`) {
		t.Errorf("no prune was logged:\n%s", log.String())
	}
	for i, seed := range seeds {
		if _, _, ok := cache.Get(key(seed)); ok != (i >= len(seeds)-2) {
			t.Errorf("seed %d: cached = %v, want only the newest two kept", seed, ok)
		}
	}
}
