package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
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
// results. Entries are fixed binary records (see encodeEntry) named by
// the SHA-256 of Version plus the run Key; every Results field is
// stored as its little-endian bits, so a cache hit is byte-for-byte
// indistinguishable from re-running the simulation. Writes go through
// a temp file plus rename, so concurrent processes sharing a cache
// directory never observe torn entries. Any unreadable, mismatched, or
// corrupt entry is treated as a miss and overwritten by the next Put.
type DiskCache struct {
	dir string

	// Lookup accounting (Get, GetAddr, HasAddr). Atomics, so readers
	// never contend with the hot path.
	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
}

// CacheStats is a point-in-time snapshot of the cache's lookup
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

// An entry is one binary record, integers little-endian:
//
//	magic | layout fingerprint (uint64) | uvarint len, Version | uvarint len, key | payload
//
// The payload is the digest (uint64) followed by core.Results through
// encoding/binary. Version and the key are stored verbatim and verified
// on read: a SHA-256 filename collision or a stale-format file (a gob
// entry of an older build among them) therefore degrades to a miss,
// never to a wrong result.
const entryMagic = "DRc\x01"

// entryPrefix is the header every entry of this build starts with: the
// magic, the fingerprint of core.Results and Version.
var entryPrefix = func() []byte {
	sum := sha256.Sum256(layout(nil, reflect.TypeOf(core.Results{})))
	b := append([]byte(entryMagic), sum[:8]...)
	b = binary.AppendUvarint(b, uint64(len(Version)))
	return append(b, Version...)
}()

// resultsSize is the encoded size of core.Results: -1, and every Put an
// error, if a field without a fixed size is ever added to it.
var resultsSize = binary.Size(core.Results{})

// layout appends t's field names, kinds and array lengths, in order,
// to b. Results are stored by position, so a field added, removed,
// renamed, retyped or moved changes the fingerprint and turns every
// older entry into a miss rather than into shifted or zeroed values.
func layout(b []byte, t reflect.Type) []byte {
	switch t.Kind() {
	case reflect.Struct:
		b = append(b, "struct{"...)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			b = append(layout(append(append(b, f.Name...), ' '), f.Type), ';')
		}
		return append(b, '}')
	case reflect.Array:
		b = strconv.AppendInt(append(b, '['), int64(t.Len()), 10)
		return layout(append(b, ']'), t.Elem())
	}
	return append(b, t.Kind().String()...)
}

// appendHeader appends the header of key's entry to dst.
func appendHeader(dst []byte, key string) []byte {
	dst = append(dst, entryPrefix...)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	return append(dst, key...)
}

// encodeEntry renders the entry Put stores.
func encodeEntry(key string, digest uint64, res *core.Results) ([]byte, error) {
	b := appendHeader(make([]byte, 0, len(entryPrefix)+binary.MaxVarintLen64+len(key)+8+resultsSize), key)
	buf := bytes.NewBuffer(binary.LittleEndian.AppendUint64(b, digest))
	if err := binary.Write(buf, binary.LittleEndian, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeEntry is encodeEntry's inverse: it accepts exactly the records
// encodeEntry writes under this build's header, so another magic,
// fingerprint or Version, or a record cut or padded anywhere, is ok=false.
func decodeEntry(b []byte) (key []byte, digest uint64, res core.Results, ok bool) {
	if !bytes.HasPrefix(b, entryPrefix) {
		return nil, 0, core.Results{}, false
	}
	b = b[len(entryPrefix):]
	n, w := binary.Uvarint(b)
	// w <= 0 is a cut or overflowing length; a zero last byte an
	// overlong one, which appendHeader would not have written.
	if w <= 0 || (w > 1 && b[w-1] == 0) || n > uint64(len(b)-w) {
		return nil, 0, core.Results{}, false
	}
	key, payload := b[w:w+int(n)], b[w+int(n):]
	if len(payload) != 8+resultsSize ||
		binary.Read(bytes.NewReader(payload[8:]), binary.LittleEndian, &res) != nil {
		return nil, 0, core.Results{}, false
	}
	return key, binary.LittleEndian.Uint64(payload), res, true
}

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, CacheAddr(key)+".run")
}

// Get returns the cached results and end-state digest for a run key,
// or ok=false on any miss, mismatch, or decoding failure.
func (c *DiskCache) Get(key string) (res core.Results, digest uint64, ok bool) {
	return c.read(c.path(key), func(stored []byte) bool { return string(stored) == key })
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
	return c.read(path, func(stored []byte) bool { return CacheAddr(string(stored)) == addr })
}

// read decodes the result entry at path and counts the lookup: a
// missing file is a miss; an entry that fails to decode, has another
// Version, or whose stored key keyOK rejects is corrupt.
func (c *DiskCache) read(path string, keyOK func(stored []byte) bool) (res core.Results, digest uint64, ok bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		c.misses.Add(1)
		return core.Results{}, 0, false
	}
	key, digest, res, ok := decodeEntry(b)
	if !ok || !keyOK(key) {
		// The entry existed but failed to decode or verify: a
		// truncated or stale-format file, counted separately from a
		// plain miss so operators see corruption distinctly.
		c.corrupt.Add(1)
		return core.Results{}, 0, false
	}
	c.hits.Add(1)
	return res, digest, true
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
	b, err := encodeEntry(key, digest, &res)
	if err != nil {
		return err
	}
	return c.write(c.path(key), b)
}

// Size returns the total bytes currently held by cache entries
// (in-flight temp files are excluded).
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

// entries lists the cache's entry files.
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
		// .blob files are an older build's entries; -cache-max still prunes them.
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
// "B" or "iB" is accepted), e.g. "1048576", "512M", "2GiB". A size
// that does not fit in an int64 is an error, not a wrapped value.
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
	if err != nil || n < 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return n * mult, nil
}

func (c *DiskCache) write(path string, b []byte) error {
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
