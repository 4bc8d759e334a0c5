package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"delrep/internal/config"
)

// Key serializes every run-identifying input of a simulation: the GPU
// and CPU benchmark names and the complete configuration, including
// the warm-up and measurement window sizes and the seed. Two specs
// with equal keys are guaranteed to produce bit-identical results, so
// the key is safe to use as a memoization and cache-lookup identity.
//
// The whole Config is folded in via its %+v rendering rather than a
// hand-picked field list: an earlier hand-written key omitted
// WarmupCycles/MeasureCycles, which would have aliased -quick and
// full-window runs in a shared on-disk cache. Rendering the struct
// keeps every present and future field run-identifying by default.
func Key(cfg config.Config, gpu, cpu string) string {
	return fmt.Sprintf("%s|%s|%+v", gpu, cpu, cfg)
}

// KeyHash returns a short stable identifier for a run key: the first
// 12 hex digits of its SHA-256. Structured log lines and
// /debug/jobs entries carry it so a job can be correlated with its
// cache identity without dumping the full rendered configuration. The
// fleet coordinator also uses it as the consistent-hash routing key,
// so a spec always routes to the worker holding its cache shard.
func KeyHash(cfg config.Config, gpu, cpu string) string {
	return HashKey(Key(cfg, gpu, cpu))
}

// HashKey is KeyHash of an already rendered key, for callers that need
// the key itself too: rendering the Config is the expensive part.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:6])
}

// CacheAddr returns the full content address of a run key: the hex
// SHA-256 of the cache Version salt plus the key. It is exactly the
// DiskCache filename stem, and the {key} path segment of the worker's
// GET /v1/cache/{key} endpoint, so a coordinator that computed a run's
// key can probe any worker's cache tier without shipping the full
// rendered configuration. Two builds with different Version salts
// produce disjoint addresses, so a mixed-version fleet degrades to
// cache misses, never to stale results.
func CacheAddr(key string) string {
	sum := sha256.Sum256([]byte(Version + "\x00" + key))
	return hex.EncodeToString(sum[:])
}
