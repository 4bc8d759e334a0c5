package consumer

import "sd/stats"

// Router embeds a foreign stats container.
type Router struct {
	NS stats.NetStats
}

// record writes the foreign counter directly, bypassing the owner's
// Inc/ResetStats discipline.
func (r *Router) record() {
	r.NS.Flits++ // want `direct write to stats counter NetStats.Flits from outside its owning package sd/stats`
	r.NS.Inc(3)  // ok: the owner's method
}

// reset also writes a foreign counter directly.
func (r *Router) reset() {
	r.NS.Hops = 0 // want `direct write to stats counter NetStats.Hops`
}

// LeakyStats has counters but no reset path at all.
type LeakyStats struct {
	Drops int64
}

// Port increments a counter whose type can never be cleared at the
// warm-up boundary.
type Port struct {
	S LeakyStats
}

func (p *Port) drop() {
	p.S.Drops++ // want `counter LeakyStats.Drops is incremented but never reset`
}

// ClosureStats is incremented through a function literal's parameter
// and has no reset path either.
type ClosureStats struct {
	Retries int64
}

var bump = func(s *ClosureStats) {
	s.Retries++ // want `counter ClosureStats.Retries is incremented but never reset`
}

// GoodStats has a reset method: increments are fine.
type GoodStats struct {
	Hits int64
}

// ResetStats zeroes the counter.
func (g *GoodStats) ResetStats() { g.Hits = 0 }

type GoodPort struct {
	S GoodStats
}

func (p *GoodPort) hit() {
	p.S.Hits++ // ok: GoodStats has ResetStats
}

// WholesaleStats is cleared by assigning a fresh zero value, the
// pattern internal/core uses (g.Stats = GPUCoreStats{}).
type WholesaleStats struct {
	Evictions int64
}

type Bank struct {
	S WholesaleStats
}

func (b *Bank) evict() {
	b.S.Evictions++ // ok: reset wholesale below
}

func (b *Bank) resetStats() {
	b.S = WholesaleStats{}
}

// localBuilder is the builder pattern: incrementing through a
// function-local value is aggregation, not measurement state.
type Totals struct {
	Sum int64
}

func localBuilder(parts []int64) Totals {
	var t Totals
	for _, p := range parts {
		t.Sum += p // ok: function-local accumulator
	}
	return t
}
