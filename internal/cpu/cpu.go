// Package cpu models the latency-sensitive CPU cores as
// dependency-throttled network trace injectors, following the paper's
// Netrace methodology: each core issues read requests at its
// benchmark's nominal rate, bounded by its memory-level parallelism,
// and performance is the achieved request throughput. A benchmark with
// small MLP becomes latency-bound as soon as the network latency
// exceeds MLP/rate, which reproduces the published spread between
// latency-sensitive (vips) and latency-tolerant (dedup) workloads.
package cpu

import (
	"math/rand"
	"slices"

	"delrep/internal/cache"
	"delrep/internal/stats"
	"delrep/internal/workload"
)

// RegionLines is the per-core footprint in 128 B lines, sized so CPU
// traffic sees a realistic LLC hit rate rather than streaming past it.
const RegionLines = 1 << 10

// Sender abstracts how the core hands a read request to the memory
// system (implemented by the core package's system wiring).
type Sender interface {
	// SendCPURead issues a read for the line from this core's node;
	// it reports whether the request was accepted this cycle.
	SendCPURead(node int, line cache.Addr) bool
}

// Core is one CPU core.
type Core struct {
	Node int
	prof workload.CPUProfile
	rng  *rand.Rand
	out  Sender

	gap        int64
	sinceIssue int64
	sent       []issued // the MLP window: outstanding reads, in issue order
	seq        uint64
	now        int64

	// Statistics.
	Completed   int64
	Issued      int64
	Lat         stats.Sampler
	ThrottleMLP int64
}

// issued is one outstanding read: its line and issue cycle.
type issued struct {
	line cache.Addr
	at   int64
}

// New builds a CPU core for the given node running the profile.
func New(node int, prof workload.CPUProfile, out Sender, seed int64) *Core {
	gap := int64(1)
	if prof.InjRate > 0 {
		gap = int64(1/prof.InjRate + 0.5)
	}
	if gap < 1 {
		gap = 1
	}
	return &Core{
		Node: node, prof: prof, out: out,
		rng:  rand.New(rand.NewSource(seed ^ int64(node)*0x51 + 7)),
		gap:  gap,
		sent: make([]issued, 0, prof.MLP),
	}
}

// nextLine draws the next line address: a sequential walk with random
// jumps over the core's private region.
func (c *Core) nextLine() cache.Addr {
	if c.rng.Float64() < c.prof.SeqP {
		c.seq++
	} else {
		c.seq = uint64(c.rng.Intn(RegionLines))
	}
	c.seq %= RegionLines
	return cache.Addr(workload.CPUBase + uint64(c.Node)*RegionLines + c.seq)
}

// Tick issues at most one request per cycle when the inter-arrival gap
// has elapsed and the MLP window has room.
func (c *Core) Tick() {
	c.now++
	c.sinceIssue++
	if c.sinceIssue < c.gap {
		return
	}
	if len(c.sent) >= c.prof.MLP {
		c.ThrottleMLP++
		return
	}
	line := c.nextLine()
	if !c.out.SendCPURead(c.Node, line) {
		return // network interface full; retry next cycle
	}
	c.sent = append(c.sent, issued{line, c.now})
	c.Issued++
	c.sinceIssue = 0
}

// ReplyArrived records the completion of an outstanding read: the
// oldest one of the line, so same-line reads complete in FIFO order.
func (c *Core) ReplyArrived(line cache.Addr) {
	i := slices.IndexFunc(c.sent, func(s issued) bool { return s.line == line })
	if i < 0 {
		panic("cpu: reply for line with no outstanding request")
	}
	c.Lat.Add(float64(c.now - c.sent[i].at))
	c.sent = slices.Delete(c.sent, i, i+1)
	c.Completed++
}

// Outstanding returns the in-flight request count.
func (c *Core) Outstanding() int { return len(c.sent) }

// Throughput returns completed requests per cycle over the window.
func (c *Core) Throughput(cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(c.Completed) / float64(cycles)
}

// ResetStats zeroes the measurement counters (end of warmup).
func (c *Core) ResetStats() {
	c.Completed, c.Issued, c.ThrottleMLP = 0, 0, 0
	c.Lat.Reset()
}
