// Package dram models a GDDR5 memory controller per memory node: a
// banked DRAM device with open-row policy, the Table I timing
// parameters, a shared data bus, and FR-FCFS (first-ready,
// first-come-first-served) scheduling.
package dram

import (
	"delrep/internal/cache"
	"delrep/internal/config"
)

// Request is one line-sized DRAM transaction.
type Request struct {
	Line    cache.Addr
	Write   bool
	Arrived int64 // cycle the request entered the queue
	Done    int64 // cycle the request completed (set by the controller)
}

type bank struct {
	openRow   int64
	rowValid  bool
	readyAt   int64 // earliest cycle the bank can issue a new column access
	lastActAt int64 // for tRC/tRRD accounting
}

// Controller is one FR-FCFS memory controller.
type Controller struct {
	cfg   config.DRAM
	banks []bank
	queue []Request
	// busFreeAt is the earliest cycle the shared data bus is free.
	busFreeAt int64
	// lastActGlobal enforces tRRD across banks.
	lastActGlobal int64
	inflight      []Request // issued, waiting for completion time
	// doneBuf backs Tick's completion slice; valid until the next Tick.
	doneBuf []Request

	ServedReads  int64
	ServedWrites int64
	RowHits      int64
	RowMisses    int64
	QueueFullEv  int64
	latSum       int64
	latCnt       int64
}

// New builds a controller with the given DRAM parameters.
func New(cfg config.DRAM) *Controller {
	c := &Controller{cfg: cfg, banks: make([]bank, cfg.Banks)}
	// Idle banks must be able to activate immediately.
	c.lastActGlobal = -int64(cfg.TRRD)
	for i := range c.banks {
		c.banks[i].lastActAt = -int64(cfg.TRC)
	}
	return c
}

// CanAccept reports whether the request queue has space.
func (c *Controller) CanAccept() bool { return len(c.queue) < c.cfg.QueueCap }

// Enqueue adds a request; callers must check CanAccept first.
func (c *Controller) Enqueue(r Request) bool {
	if !c.CanAccept() {
		c.QueueFullEv++
		return false
	}
	c.queue = append(c.queue, r)
	return true
}

func (c *Controller) bankOf(line cache.Addr) int {
	return int(uint64(line) % uint64(len(c.banks)))
}

func (c *Controller) rowOf(line cache.Addr) int64 {
	// 16 lines per row: a 2 KB row of 128 B lines.
	return int64(uint64(line) / uint64(len(c.banks)) >> 4)
}

// Tick advances one cycle and returns requests that completed this cycle.
// FR-FCFS: among queued requests whose bank is ready, prefer row hits;
// break ties by arrival order. The returned slice is reused by the next
// Tick; callers must consume it before ticking again.
func (c *Controller) Tick(now int64) []Request {
	// Collect completions.
	done := c.doneBuf[:0]
	remaining := c.inflight[:0]
	for _, r := range c.inflight {
		if r.Done <= now {
			done = append(done, r)
			c.latSum += r.Done - r.Arrived
			c.latCnt++
		} else {
			remaining = append(remaining, r)
		}
	}
	c.inflight = remaining
	c.doneBuf = done

	// Issue at most one command per cycle (single command bus).
	best := -1
	bestHit := false
	for i, r := range c.queue {
		b := &c.banks[c.bankOf(r.Line)]
		if b.readyAt > now {
			continue
		}
		hit := b.rowValid && b.openRow == c.rowOf(r.Line)
		if !hit {
			// Activation constraints: tRC within the bank, tRRD across banks.
			if now < b.lastActAt+int64(c.cfg.TRC) || now < c.lastActGlobal+int64(c.cfg.TRRD) {
				continue
			}
		}
		if best == -1 || (hit && !bestHit) {
			best, bestHit = i, hit
			if hit {
				break // first-ready row hit in FCFS order wins
			}
		}
	}
	if best >= 0 {
		r := c.queue[best]
		c.queue = append(c.queue[:best], c.queue[best+1:]...)
		b := &c.banks[c.bankOf(r.Line)]
		var accessDone int64
		if bestHit {
			c.RowHits++
			accessDone = now + int64(c.cfg.TCL)
		} else {
			c.RowMisses++
			pre := int64(0)
			if b.rowValid {
				pre = int64(c.cfg.TRP)
			}
			accessDone = now + pre + int64(c.cfg.TRCD) + int64(c.cfg.TCL)
			b.openRow = c.rowOf(r.Line)
			b.rowValid = true
			b.lastActAt = now + pre
			c.lastActGlobal = now + pre
		}
		// Serialize the line transfer on the shared data bus.
		start := accessDone
		if c.busFreeAt > start {
			start = c.busFreeAt
		}
		finish := start + int64(c.cfg.BurstCyc)
		c.busFreeAt = finish
		// Column-to-column and write-recovery constraints on the bank.
		gap := int64(c.cfg.TCCD)
		if r.Write {
			gap += int64(c.cfg.TWR)
			c.ServedWrites++
		} else {
			c.ServedReads++
		}
		b.readyAt = accessDone + gap
		r.Done = finish
		c.inflight = append(c.inflight, r)
	}
	return done
}

// AvgLatency returns the mean queue-to-completion latency in cycles.
func (c *Controller) AvgLatency() float64 {
	if c.latCnt == 0 {
		return 0
	}
	return float64(c.latSum) / float64(c.latCnt)
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (c *Controller) RowHitRate() float64 {
	t := c.RowHits + c.RowMisses
	if t == 0 {
		return 0
	}
	return float64(c.RowHits) / float64(t)
}

// Outstanding returns queued plus in-flight request counts.
func (c *Controller) Outstanding() int { return len(c.queue) + len(c.inflight) }

// ResetStats zeroes the service counters (end of warmup).
func (c *Controller) ResetStats() {
	c.ServedReads, c.ServedWrites = 0, 0
	c.RowHits, c.RowMisses = 0, 0
	c.QueueFullEv = 0
	c.latSum, c.latCnt = 0, 0
}
