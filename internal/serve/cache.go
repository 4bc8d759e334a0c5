package serve

import (
	"fmt"
	"net/http"

	"delrep/internal/core"
)

// CacheEntry is the wire form of one cached result served by
// GET /v1/cache/{key}: the stored core.Results plus the
// determinism-audit digest in the same 16-hex-digit rendering as
// simspec.Result. The spec is deliberately absent — the caller
// addressed the entry by content, so it already holds the canonical
// spec the results belong to.
type CacheEntry struct {
	Results core.Results `json:"results"`
	Digest  string       `json:"digest"`
}

// handleCacheGet serves one cached result by content address
// (runner.CacheAddr of the full run key): 200 with a CacheEntry on a
// hit, 404 on a miss or when the daemon runs uncached. The fleet
// coordinator probes this before enqueueing a job, so a spec whose
// result already sits in this worker's cache shard is answered without
// consuming a queue slot or a worker goroutine — the warm disk caches
// of the fleet collectively form a distributed cache tier.
//
// The address is the entry's validator: a 200 carries ETag "<addr>",
// and a request whose If-None-Match names it is a revalidation by a
// caller that already holds the result — answered 304 without a body,
// and without opening the entry, when the entry file exists.
func (x *local) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	cache := x.opts.Engine.DiskCache()
	if cache == nil {
		writeError(w, http.StatusNotFound, "this daemon runs uncached")
		return
	}
	addr := r.PathValue("key")
	etag := `"` + addr + `"`
	miss := func() { writeError(w, http.StatusNotFound, "no cached result for %q", addr) }
	if r.Header.Get("If-None-Match") == etag {
		if cache.HasAddr(addr) {
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
		} else {
			miss()
		}
		return
	}
	res, digest, ok := cache.GetAddr(addr)
	if !ok {
		miss()
		return
	}
	w.Header().Set("ETag", etag)
	writeJSON(w, http.StatusOK, CacheEntry{
		Results: res,
		Digest:  fmt.Sprintf("%016x", digest),
	})
}
