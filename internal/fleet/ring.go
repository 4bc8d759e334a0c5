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
//   - Specs route to workers by consistent hashing of runner.KeyHash,
//     so each worker's warm disk cache becomes one shard of a
//     distributed cache tier; the coordinator probes the shard
//     (GET /v1/cache/{key}) before spending a queue slot.
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
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// replicas is the virtual-node count per worker on the ring: enough
// that removing one worker of a handful spreads its keyspace roughly
// evenly over the survivors, cheap enough that rebuilding the ring on
// membership change is negligible next to one simulation.
const replicas = 128

// Ring is a consistent-hash ring mapping content keys to worker names.
// It is immutable after construction — membership changes build a new
// Ring — so readers need no locking. The coordinator rebuilds it only
// on configured-membership change (which, today, is never at runtime);
// unhealthy workers stay on the ring and are skipped at lookup time,
// so a worker that comes back resumes owning exactly its old shard and
// its warm cache stays addressed.
type Ring struct {
	hashes  []uint64 // sorted virtual-node positions
	owner   map[uint64]string
	members []string // distinct workers, sorted (for Members and tests)
}

// NewRing builds a ring over the named workers.
func NewRing(workers []string) *Ring {
	r := &Ring{owner: map[uint64]string{}}
	seen := map[string]bool{}
	for _, w := range workers {
		if w == "" || seen[w] {
			continue
		}
		seen[w] = true
		r.members = append(r.members, w)
		for i := 0; i < replicas; i++ {
			h := ringHash(fmt.Sprintf("%s#%d", w, i))
			// A full-width hash collision between virtual nodes is
			// vanishingly unlikely; first writer wins keeps the ring
			// deterministic if it ever happens.
			if _, taken := r.owner[h]; !taken {
				r.owner[h] = w
				r.hashes = append(r.hashes, h)
			}
		}
	}
	sort.Slice(r.hashes, func(i, j int) bool { return r.hashes[i] < r.hashes[j] })
	sort.Strings(r.members)
	return r
}

// Members returns the distinct workers on the ring, sorted.
func (r *Ring) Members() []string { return r.members }

// Sequence returns every worker in ring order starting at the key's
// position, each exactly once: the first element is the key's home
// worker (its cache shard), the rest are the failover order. The
// sequence depends only on ring membership and the key, so every
// coordinator instance — and a restarted one — routes identically.
func (r *Ring) Sequence(key string) []string {
	if len(r.hashes) == 0 {
		return nil
	}
	h := ringHash(key)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	out := make([]string, 0, len(r.members))
	seen := map[string]bool{}
	for n := 0; n < len(r.hashes) && len(out) < len(r.members); n++ {
		w := r.owner[r.hashes[(i+n)%len(r.hashes)]]
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// ringHash positions a string on the ring: the first 8 bytes of its
// SHA-256, big-endian. SHA-256 (not FNV) so ring positions reuse the
// same well-mixed hash family as the cache addresses being routed.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
