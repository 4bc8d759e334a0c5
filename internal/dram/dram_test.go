package dram

import (
	"testing"

	"delrep/internal/cache"
	"delrep/internal/config"
)

func cfg() config.DRAM { return config.Default().DRAM }

// runUntil ticks the controller until n requests complete or the cycle
// budget is exhausted, returning completions in order.
func runUntil(c *Controller, n int, budget int64) []Request {
	var done []Request
	for cyc := int64(0); cyc < budget && len(done) < n; cyc++ {
		done = append(done, c.Tick(cyc)...)
	}
	return done
}

func TestSingleReadLatency(t *testing.T) {
	c := New(cfg())
	c.Enqueue(Request{Line: 0, Arrived: 0})
	done := runUntil(c, 1, 1000)
	if len(done) != 1 {
		t.Fatal("request did not complete")
	}
	// Cold access: tRCD + tCL + burst (no precharge on an idle bank).
	want := int64(cfg().TRCD + cfg().TCL + cfg().BurstCyc)
	if done[0].Done != want {
		t.Fatalf("latency %d, want %d", done[0].Done, want)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	c := New(cfg())
	banks := cfg().Banks
	// One shared timeline: open bank 0's row 0, then issue a row hit and
	// (later) a row miss to the same bank and compare service latencies.
	cyc := int64(0)
	step := func(want int) []Request {
		var done []Request
		for ; len(done) < want && cyc < 100000; cyc++ {
			done = append(done, c.Tick(cyc)...)
		}
		return done
	}
	c.Enqueue(Request{Line: 0, Arrived: cyc})
	step(1)
	c.Enqueue(Request{Line: cache.Addr(banks), Arrived: cyc}) // same row
	hit := step(1)[0]
	hitLat := hit.Done - hit.Arrived
	c.Enqueue(Request{Line: cache.Addr(banks * 16 * 1000), Arrived: cyc})
	miss := step(1)[0]
	missLat := miss.Done - miss.Arrived
	if hitLat <= 0 || missLat <= hitLat {
		t.Fatalf("row hit %d vs row miss %d", hitLat, missLat)
	}
	if c.RowHitRate() == 0 {
		t.Fatal("no row hits recorded")
	}
}

func TestBusSerialization(t *testing.T) {
	c := New(cfg())
	const n = 16
	for i := 0; i < n; i++ {
		// Spread across banks and rows so bank timing is not the limit.
		c.Enqueue(Request{Line: cache.Addr(i)})
	}
	done := runUntil(c, n, 100000)
	if len(done) != n {
		t.Fatalf("completed %d/%d", len(done), n)
	}
	last := done[len(done)-1].Done
	if min := int64(n * cfg().BurstCyc); last < min {
		t.Fatalf("finished at %d, bus serialization demands >= %d", last, min)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	c := New(cfg())
	banks := cfg().Banks
	// Open a row in bank 0.
	c.Enqueue(Request{Line: 0})
	runUntil(c, 1, 1000)
	// Enqueue a row miss (older) and a row hit (newer) for bank 0.
	miss := Request{Line: cache.Addr(banks * 16 * 7)}
	hit := Request{Line: cache.Addr(banks)}
	c.Enqueue(miss)
	c.Enqueue(hit)
	done := runUntil(c, 2, 10000)
	if len(done) != 2 {
		t.Fatal("requests did not complete")
	}
	if done[0].Line != hit.Line {
		t.Fatal("FR-FCFS did not serve the row hit first")
	}
}

func TestQueueCap(t *testing.T) {
	c := New(cfg())
	for i := 0; i < cfg().QueueCap; i++ {
		if !c.Enqueue(Request{Line: cache.Addr(i)}) {
			t.Fatalf("enqueue %d failed below capacity", i)
		}
	}
	if c.CanAccept() {
		t.Fatal("queue should be full")
	}
	if c.Enqueue(Request{Line: 999}) {
		t.Fatal("enqueue succeeded on full queue")
	}
	if c.QueueFullEv != 1 {
		t.Fatalf("full events = %d", c.QueueFullEv)
	}
}

func TestWritesCounted(t *testing.T) {
	c := New(cfg())
	c.Enqueue(Request{Line: 1, Write: true})
	c.Enqueue(Request{Line: 2})
	done := runUntil(c, 2, 10000)
	if len(done) != 2 {
		t.Fatal("incomplete")
	}
	if c.ServedWrites != 1 || c.ServedReads != 1 {
		t.Fatalf("reads=%d writes=%d", c.ServedReads, c.ServedWrites)
	}
}

func TestAvgLatencyAndReset(t *testing.T) {
	c := New(cfg())
	c.Enqueue(Request{Line: 0})
	runUntil(c, 1, 1000)
	if c.AvgLatency() <= 0 {
		t.Fatal("no latency recorded")
	}
	c.ResetStats()
	if c.AvgLatency() != 0 || c.ServedReads != 0 || c.RowHitRate() != 0 {
		t.Fatal("stats not reset")
	}
}

func TestOutstanding(t *testing.T) {
	c := New(cfg())
	c.Enqueue(Request{Line: 0})
	c.Enqueue(Request{Line: 1})
	if c.Outstanding() != 2 {
		t.Fatalf("outstanding = %d", c.Outstanding())
	}
	runUntil(c, 2, 10000)
	if c.Outstanding() != 0 {
		t.Fatalf("outstanding after drain = %d", c.Outstanding())
	}
}

func TestBankConflictSerializes(t *testing.T) {
	c := New(cfg())
	banks := cfg().Banks
	// Two different rows of the same bank: tRC separates activates.
	c.Enqueue(Request{Line: 0})
	c.Enqueue(Request{Line: cache.Addr(banks * 16 * 3)})
	done := runUntil(c, 2, 10000)
	if len(done) != 2 || done[0].Line != 0 {
		t.Fatal("incomplete or out of order")
	}
	if gap := done[1].Done - done[0].Done; gap < int64(cfg().TRP) {
		t.Fatalf("bank conflict gap %d too small", gap)
	}
}
