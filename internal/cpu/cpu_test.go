package cpu

import (
	"testing"
	"testing/quick"

	"delrep/internal/cache"
	"delrep/internal/workload"
)

// fakeSender records or refuses requests.
type fakeSender struct {
	accept bool
	lines  []cache.Addr
}

func (f *fakeSender) SendCPURead(node int, line cache.Addr) bool {
	if !f.accept {
		return false
	}
	f.lines = append(f.lines, line)
	return true
}

func prof(name string) workload.CPUProfile { return workload.CPUProfileByName(name) }

func TestInjectionRatePacing(t *testing.T) {
	s := &fakeSender{accept: true}
	p := prof("dedup") // high MLP so the gap is the limiter
	c := New(0, p, s, 1)
	cycles := 20000
	for i := 0; i < cycles; i++ {
		c.Tick()
		// Complete immediately: latency never throttles.
		for _, l := range s.lines {
			c.ReplyArrived(l)
		}
		s.lines = s.lines[:0]
	}
	rate := float64(c.Issued) / float64(cycles)
	if rate < p.InjRate*0.8 || rate > p.InjRate*1.2 {
		t.Fatalf("rate %.4f, want ~%.4f", rate, p.InjRate)
	}
}

func TestMLPThrottle(t *testing.T) {
	s := &fakeSender{accept: true}
	p := prof("vips") // MLP 2
	c := New(0, p, s, 1)
	for i := 0; i < 5000; i++ {
		c.Tick() // never complete anything
		if c.Outstanding() > p.MLP {
			t.Fatalf("outstanding %d exceeds MLP %d", c.Outstanding(), p.MLP)
		}
	}
	if c.Outstanding() != p.MLP {
		t.Fatalf("outstanding %d, want MLP %d", c.Outstanding(), p.MLP)
	}
	if c.ThrottleMLP == 0 {
		t.Fatal("no MLP throttle events")
	}
}

func TestLatencyRecorded(t *testing.T) {
	s := &fakeSender{accept: true}
	c := New(0, prof("vips"), s, 1)
	for i := 0; i < 200 && len(s.lines) == 0; i++ {
		c.Tick()
	}
	if len(s.lines) == 0 {
		t.Fatal("no request issued")
	}
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	c.ReplyArrived(s.lines[0])
	if c.Completed != 1 {
		t.Fatal("completion not counted")
	}
	if c.Lat.Mean() < 50 {
		t.Fatalf("latency %.1f, want >= 50", c.Lat.Mean())
	}
}

func TestReplyWithoutRequestPanics(t *testing.T) {
	c := New(0, prof("vips"), &fakeSender{}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.ReplyArrived(12345)
}

func TestDuplicateLineRequests(t *testing.T) {
	// Two outstanding requests for the same line must complete in FIFO
	// order without losing either.
	s := &fakeSender{accept: true}
	p := prof("dedup")
	c := New(0, p, s, 1)
	for i := 0; i < 100000 && c.Outstanding() < 2; i++ {
		c.Tick()
		// Funnel all requests onto one line by completing none.
	}
	// Synthesize duplicates directly: the generator may not repeat, so
	// exercise ReplyArrived with two outstanding reads of one line.
	line := s.lines[0]
	c.sent = append(c.sent, issued{line, c.now})
	before := c.Completed
	c.ReplyArrived(line)
	c.ReplyArrived(line)
	if c.Completed != before+2 {
		t.Fatal("duplicate completions lost")
	}
}

func TestRefusedSendRetries(t *testing.T) {
	s := &fakeSender{accept: false}
	c := New(0, prof("vips"), s, 1)
	for i := 0; i < 1000; i++ {
		c.Tick()
	}
	if c.Issued != 0 {
		t.Fatal("issued despite refusal")
	}
	s.accept = true
	for i := 0; i < 1000; i++ {
		c.Tick()
	}
	if c.Issued == 0 {
		t.Fatal("never issued after acceptance")
	}
}

func TestAddressesWithinRegion(t *testing.T) {
	s := &fakeSender{accept: true}
	node := 17
	c := New(node, prof("canneal"), s, 1)
	for i := 0; i < 50000; i++ {
		c.Tick()
		for _, l := range s.lines {
			base := cache.Addr(workload.CPUBase + uint64(node)*RegionLines)
			if l < base || l >= base+RegionLines {
				t.Fatalf("address %d outside region [%d,%d)", l, base, base+RegionLines)
			}
			c.ReplyArrived(l)
		}
		s.lines = s.lines[:0]
	}
}

func TestOutstandingNeverNegativeQuick(t *testing.T) {
	f := func(seed int64, completeEvery uint8) bool {
		s := &fakeSender{accept: true}
		c := New(0, prof("ferret"), s, seed)
		step := int(completeEvery%7) + 1
		for i := 0; i < 2000; i++ {
			c.Tick()
			if i%step == 0 {
				for _, l := range s.lines {
					c.ReplyArrived(l)
				}
				s.lines = s.lines[:0]
			}
			if c.Outstanding() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputAndReset(t *testing.T) {
	s := &fakeSender{accept: true}
	c := New(0, prof("dedup"), s, 1)
	for i := 0; i < 1000; i++ {
		c.Tick()
		for _, l := range s.lines {
			c.ReplyArrived(l)
		}
		s.lines = s.lines[:0]
	}
	if c.Throughput(1000) <= 0 {
		t.Fatal("zero throughput")
	}
	c.ResetStats()
	if c.Completed != 0 || c.Issued != 0 || c.Lat.Count() != 0 {
		t.Fatal("stats not reset")
	}
}
