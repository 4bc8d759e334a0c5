package runner

import (
	"crypto/sha256"
	"encoding/hex"

	"delrep/internal/config"
)

// Key serializes every run-identifying input of a simulation: the GPU
// and CPU benchmark names and the complete configuration, including
// the warm-up and measurement window sizes and the seed. Two specs
// with equal keys are guaranteed to produce bit-identical results, so
// the key is safe to use as a memoization and cache-lookup identity.
//
// The key is "gpu|cpu|" followed by config.Config.AppendKey, which
// writes the bytes fmt's %+v printed for the Config when the key was a
// Sprintf, so every cache address stayed the same when the renderer
// changed. It covers the whole Config rather than a hand-picked field
// list: an earlier hand-written key omitted WarmupCycles and
// MeasureCycles, which would have aliased -quick and full-window runs
// in a shared on-disk cache. A field added to the Config takes part
// because config's TestAppendKeyMatchesSprintf fails until AppendKey
// renders it.
func Key(cfg config.Config, gpu, cpu string) string {
	// 1 KiB holds every key the evaluation renders (≈ 930 bytes on the
	// 12×12 layout), so the buffer stays on the stack and the string is
	// the only allocation.
	b := make([]byte, 0, 1024)
	b = append(b, gpu...)
	b = append(b, '|')
	b = append(b, cpu...)
	b = append(b, '|')
	b = cfg.AppendKey(b)
	return string(b)
}

// KeyHash returns a short stable identifier for a run key: the first
// 12 hex digits of its SHA-256. Structured log lines and
// /debug/jobs entries carry it so a job can be correlated with its
// cache identity without dumping the full rendered configuration.
func KeyHash(cfg config.Config, gpu, cpu string) string {
	return HashKey(Key(cfg, gpu, cpu))
}

// HashKey is KeyHash of an already rendered key, for callers that need
// the key itself too: rendering the Config is the expensive part.
func HashKey(key string) string {
	sum := HashKeySum(key)
	return hex.EncodeToString(sum[:])
}

// HashKeySum is HashKey's 6 bytes before they are rendered as hex.
func HashKeySum(key string) (sum [6]byte) {
	full := sha256.Sum256([]byte(key))
	copy(sum[:], full[:])
	return sum
}

// CacheAddr returns the full content address of a run key: the hex
// SHA-256 of the cache Version salt plus the key. It is exactly the
// DiskCache filename stem, and the {key} path segment of the worker's
// GET /v1/cache/{key} endpoint, so a coordinator that computed a run's
// key can probe any worker's cache tier without shipping the full
// rendered configuration; the coordinator routes by it too. Two
// builds with different Version salts produce disjoint addresses, so
// a mixed-version fleet degrades to cache misses, never to stale
// results.
func CacheAddr(key string) string {
	sum := sha256.Sum256([]byte(Version + "\x00" + key))
	return hex.EncodeToString(sum[:])
}
