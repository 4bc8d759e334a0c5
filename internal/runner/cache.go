package runner

import (
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"delrep/internal/core"
)

// Version is the code/version salt folded into every cache address.
// Bump it whenever a simulator change alters results for an unchanged
// configuration — stale entries then simply stop being addressable and
// age out, rather than poisoning new runs. The full policy (what
// counts as "alters results") is documented in DESIGN.md §11.
//
// v3: the tiled tick rework changed packet hop accounting to
// head-only charging. Final values are identical, but the salt is
// bumped so any pre-tile build's entries cannot alias a build whose
// digest definition has been re-certified.
const Version = "delrep-run-v3"

// DiskCache is an on-disk, content-addressed store of simulation
// results (and small observed-run artifacts). Entries are gob files
// named by the SHA-256 of Version plus the run Key; gob preserves
// float64 bit patterns exactly, so a cache hit is byte-for-byte
// indistinguishable from re-running the simulation. Writes go through
// a temp file plus rename, so concurrent processes sharing a cache
// directory never observe torn entries. Any unreadable, mismatched, or
// corrupt entry is treated as a miss and overwritten by the next Put.
type DiskCache struct {
	dir string

	// Result-lookup accounting (Get, GetAddr, HasAddr; blob artifacts
	// are not counted). Atomics, so readers never contend with the hot
	// path.
	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
}

// CacheStats is a point-in-time snapshot of the cache's result-lookup
// accounting. Corrupt counts entries that existed but failed to decode
// or verify (stale format, truncated write, SHA collision) — each one
// degraded to a miss rather than a wrong result, but a nonzero rate is
// worth alerting on.
type CacheStats struct {
	Hits    int64
	Misses  int64
	Corrupt int64
}

// Stats returns the cache's lookup accounting. Safe on a nil cache
// (all zeros), so callers with caching disabled need no guard.
func (c *DiskCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Corrupt: c.corrupt.Load(),
	}
}

// OpenDiskCache opens (creating if needed) a cache directory.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskCache{dir: dir}, nil
}

// DefaultCacheDir returns the default cache location: $DELREP_CACHE_DIR
// when set, otherwise <user cache dir>/delrep. The environment variable
// lets the daemon and the CLIs share one cache without threading a
// directory flag through every invocation.
func DefaultCacheDir() (string, error) {
	if dir := os.Getenv("DELREP_CACHE_DIR"); dir != "" {
		return dir, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(base, "delrep"), nil
}

// OpenCache resolves the -cache flag every binary shares: "off"
// disables the on-disk cache (nil, no error), "auto" selects
// DefaultCacheDir, anything else is a directory path. When "auto"
// cannot provide a cache the binary should say why and run without
// one, so that reason comes back as uncached; an explicit directory
// that cannot be opened is err, which callers treat as fatal.
func OpenCache(flagVal string) (c *DiskCache, uncached, err error) {
	switch flagVal {
	case "off":
		return nil, nil, nil
	case "auto":
		dir, err := DefaultCacheDir()
		if err != nil {
			return nil, fmt.Errorf("no user cache dir (%v)", err), nil
		}
		if c, err = OpenDiskCache(dir); err != nil {
			return nil, fmt.Errorf("opening cache %s: %v", dir, err), nil
		}
		return c, nil, nil
	}
	if c, err = OpenDiskCache(flagVal); err != nil {
		return nil, nil, fmt.Errorf("opening cache %s: %v", flagVal, err)
	}
	return c, nil, nil
}

// Dir returns the cache directory.
func (c *DiskCache) Dir() string { return c.dir }

// entry is the stored form of one simulation result. Version and Key
// are stored verbatim and verified on read: a SHA-256 filename
// collision or a stale-format file therefore degrades to a miss, never
// to a wrong result.
type entry struct {
	Version string
	Key     string
	Digest  uint64
	Results core.Results
}

// blobEntry is the stored form of one artifact (see GetBlob/PutBlob).
type blobEntry struct {
	Version string
	Key     string
	Data    []byte
}

func (c *DiskCache) path(key, ext string) string {
	return filepath.Join(c.dir, CacheAddr(key)+ext)
}

// Get returns the cached results and end-state digest for a run key,
// or ok=false on any miss, mismatch, or decoding failure.
func (c *DiskCache) Get(key string) (res core.Results, digest uint64, ok bool) {
	f, err := os.Open(c.path(key, ".run"))
	if err != nil {
		c.misses.Add(1)
		return core.Results{}, 0, false
	}
	defer f.Close()
	var e entry
	if err := gob.NewDecoder(f).Decode(&e); err != nil ||
		e.Version != Version || e.Key != key {
		// The entry existed but failed to decode or verify: a
		// truncated or stale-format file, counted separately from a
		// plain miss so operators see corruption distinctly.
		c.corrupt.Add(1)
		return core.Results{}, 0, false
	}
	c.hits.Add(1)
	return e.Results, e.Digest, true
}

// GetAddr returns the cached results and digest for a content address
// (see CacheAddr), or ok=false on any miss, mismatch, or decoding
// failure. It backs the worker's GET /v1/cache/{key} endpoint: the
// caller knows only the address, so the stored key is re-hashed and
// verified against it — a filename collision or a hand-crafted address
// degrades to a miss, never to a wrong result.
func (c *DiskCache) GetAddr(addr string) (res core.Results, digest uint64, ok bool) {
	path, ok := c.addrPath(addr)
	if !ok {
		return core.Results{}, 0, false
	}
	f, err := os.Open(path)
	if err != nil {
		c.misses.Add(1)
		return core.Results{}, 0, false
	}
	defer f.Close()
	var e entry
	if err := gob.NewDecoder(f).Decode(&e); err != nil ||
		e.Version != Version || CacheAddr(e.Key) != addr {
		c.corrupt.Add(1)
		return core.Results{}, 0, false
	}
	c.hits.Add(1)
	return e.Results, e.Digest, true
}

// HasAddr reports whether an entry file exists for a content address,
// without opening it. It backs the worker's 304 answer to a
// revalidation: the caller already holds the verified result, so
// presence is all that is attested — a corrupt file still says yes.
func (c *DiskCache) HasAddr(addr string) bool {
	path, ok := c.addrPath(addr)
	if !ok {
		return false
	}
	if _, err := os.Stat(path); err != nil {
		c.misses.Add(1)
		return false
	}
	c.hits.Add(1)
	return true
}

// addrPath returns the entry file of a content address, ok=false for
// anything that could name a file outside the cache dir.
func (c *DiskCache) addrPath(addr string) (path string, ok bool) {
	if len(addr) != 2*sha256.Size || strings.ContainsAny(addr, "/.\\") {
		return "", false
	}
	return filepath.Join(c.dir, addr+".run"), true
}

// Put stores one run's results under its key.
func (c *DiskCache) Put(key string, digest uint64, res core.Results) error {
	return c.write(c.path(key, ".run"), entry{
		Version: Version, Key: key, Digest: digest, Results: res,
	})
}

// GetBlob returns a cached artifact (for example an observed run's
// clog narrative) stored under an arbitrary key, or ok=false on miss.
func (c *DiskCache) GetBlob(key string) (data []byte, ok bool) {
	f, err := os.Open(c.path(key, ".blob"))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	var e blobEntry
	if err := gob.NewDecoder(f).Decode(&e); err != nil ||
		e.Version != Version || e.Key != key {
		return nil, false
	}
	return e.Data, true
}

// PutBlob stores an artifact under a key.
func (c *DiskCache) PutBlob(key string, data []byte) error {
	return c.write(c.path(key, ".blob"), blobEntry{
		Version: Version, Key: key, Data: data,
	})
}

// Size returns the total bytes currently held by cache entries (.run
// and .blob files; in-flight temp files are excluded).
func (c *DiskCache) Size() (int64, error) {
	files, err := c.entries()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, f := range files {
		total += f.size
	}
	return total, nil
}

// cacheFile is one on-disk entry considered by Prune.
type cacheFile struct {
	name  string
	size  int64
	mtime time.Time
}

// entries lists the cache's .run and .blob files.
func (c *DiskCache) entries() ([]cacheFile, error) {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var files []cacheFile
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if !strings.HasSuffix(name, ".run") && !strings.HasSuffix(name, ".blob") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // deleted by a concurrent prune; skip
		}
		files = append(files, cacheFile{name: name, size: info.Size(), mtime: info.ModTime()})
	}
	return files, nil
}

// Prune deletes cache entries, oldest modification time first, until
// the entries' total size is at most maxBytes. Ties on mtime break by
// filename so concurrent pruners converge on the same victims. A
// long-lived process (the delrepd daemon) calls this after executed
// runs to bound its disk use; losing an entry only costs a future
// re-simulation, never correctness.
func (c *DiskCache) Prune(maxBytes int64) (removed int, freed int64, err error) {
	if maxBytes < 0 {
		maxBytes = 0
	}
	files, err := c.entries()
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, f := range files {
		total += f.size
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].name < files[j].name
	})
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(c.dir, f.name)); err != nil {
			if os.IsNotExist(err) {
				total -= f.size // a concurrent pruner got there first
				continue
			}
			return removed, freed, err
		}
		total -= f.size
		freed += f.size
		removed++
	}
	return removed, freed, nil
}

// ParseSize parses a human-readable byte size: a plain integer, or an
// integer with a K/M/G/T suffix in binary units (an optional trailing
// "B" or "iB" is accepted), e.g. "1048576", "512M", "2GiB".
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	t = strings.TrimSuffix(t, "IB")
	t = strings.TrimSuffix(t, "B")
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, strings.TrimSuffix(t, "K")
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, strings.TrimSuffix(t, "M")
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, strings.TrimSuffix(t, "G")
	case strings.HasSuffix(t, "T"):
		mult, t = 1<<40, strings.TrimSuffix(t, "T")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return n * mult, nil
}

func (c *DiskCache) write(path string, v any) error {
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	err = gob.NewEncoder(tmp).Encode(v)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
