// Package fleet scales simulation sweeps past one machine: a
// coordinator daemon (cmd/delrepfleet) that shards jobs across many
// delrepd worker daemons.
//
// The design leans entirely on properties the single-node stack
// already guarantees:
//
//   - Simulations are deterministic and content-addressed: a spec's
//     runner.Key identifies its result bit-for-bit, wherever and
//     however often it runs. Replays are therefore idempotent, which
//     makes retry-with-failover trivially safe — a job rerun on a
//     survivor after a worker death returns byte-identical output.
//   - Specs route to workers in rendezvous order of their content
//     address (runner.CacheAddr), so each worker's warm disk cache
//     becomes one shard of a distributed cache tier; the coordinator
//     probes the shard (GET /v1/cache/{key}) before spending a queue
//     slot.
//   - The coordinator speaks the same /v1/jobs wire API as delrepd
//     (submit, wait, SSE progress, cancel), so every existing client
//     works against a fleet unchanged.
//
// The non-negotiable invariant: a fleet-served result is
// byte-comparable — same simspec.Result JSON, same digest — with a
// direct delrepsim -json run of the same spec, including after
// mid-sweep worker failures. DESIGN.md §12 has the full architecture.
package fleet

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
)

// Ring orders the workers for each key by rendezvous
// (highest-random-weight) hashing: each worker draws a weight from the
// key and its own seed, and the heaviest is the key's home. A worker's
// weights do not depend on the other members, so an unhealthy worker
// is skipped at lookup time without moving any other key, and one that
// comes back owns exactly its old shard and warm cache again. It is
// immutable after construction, so readers need no locking.
type Ring struct {
	members []string // distinct workers, sorted
	seeds   []uint64 // ringHash(members[i])
}

// NewRing builds a ring over the named workers.
func NewRing(workers []string) *Ring {
	members := slices.DeleteFunc(slices.Clone(workers), func(w string) bool { return w == "" })
	slices.Sort(members)
	r := &Ring{members: slices.Compact(members)}
	for _, w := range r.members {
		r.seeds = append(r.seeds, ringHash(w))
	}
	return r
}

// Members returns the distinct workers on the ring, sorted.
func (r *Ring) Members() []string { return r.members }

// Sequence returns every worker heaviest first for the key, each
// exactly once: the first element is the key's home worker (its cache
// shard), the rest are the failover order. The sequence depends only
// on membership and the key, so every coordinator instance — and a
// restarted one — routes identically.
func (r *Ring) Sequence(key string) []string {
	if len(r.members) == 0 {
		return nil
	}
	type draw struct {
		weight uint64
		worker string
	}
	h := ringHash(key)
	draws := make([]draw, len(r.members))
	for i, w := range r.members {
		draws[i] = draw{mix(h ^ r.seeds[i]), w}
	}
	// Stable, so a (vanishingly unlikely) tie keeps the sorted order.
	slices.SortStableFunc(draws, func(a, b draw) int { return cmp.Compare(b.weight, a.weight) })
	out := make([]string, len(draws))
	for i, d := range draws {
		out[i] = d.worker
	}
	return out
}

// ringHash is the first 8 bytes of a string's SHA-256, big-endian.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// mix is the SplitMix64 finalizer: a bijection whose every output bit
// depends on every input bit, so a key's weights for two workers are
// independent draws.
func mix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
