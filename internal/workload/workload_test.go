package workload

import (
	"testing"
	"testing/quick"

	"delrep/internal/cache"
	"delrep/internal/config"
)

func TestProfilesComplete(t *testing.T) {
	gp := GPUProfiles()
	if len(gp) != 11 {
		t.Fatalf("%d GPU profiles, want 11", len(gp))
	}
	for _, p := range gp {
		if p.PrivLines <= 0 || p.SharedLines <= 0 || p.ShareGroup <= 0 {
			t.Errorf("%s: bad region sizes %+v", p.Name, p)
		}
		if p.SharedFrac < 0 || p.SharedFrac > 1 || p.WriteFrac < 0 || p.WriteFrac > 1 {
			t.Errorf("%s: bad fractions", p.Name)
		}
		if p.ComputeLen <= 0 || p.PhaseLoads <= 0 {
			t.Errorf("%s: bad phase structure", p.Name)
		}
		if p.WinLag <= 0 {
			t.Errorf("%s: bad wavefront lag", p.Name)
		}
	}
	if len(CPUProfiles()) != 9 {
		t.Fatalf("%d CPU profiles, want 9", len(CPUProfiles()))
	}
}

func TestCPUInjectionRatesMatchPaper(t *testing.T) {
	// Section VI: CPU injection rates span 0.013 to 0.084 flits/cycle.
	lo, hi := 1.0, 0.0
	for _, p := range CPUProfiles() {
		if p.InjRate < lo {
			lo = p.InjRate
		}
		if p.InjRate > hi {
			hi = p.InjRate
		}
		if p.MLP <= 0 {
			t.Errorf("%s: MLP %d", p.Name, p.MLP)
		}
	}
	if lo != 0.013 || hi != 0.084 {
		t.Fatalf("injection rate span [%v, %v], paper [0.013, 0.084]", lo, hi)
	}
}

func TestProfileByNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	GPUProfileByName("NOPE")
}

func TestTableIIComplete(t *testing.T) {
	tbl := TableII()
	if len(tbl) != 11 {
		t.Fatalf("%d GPU entries", len(tbl))
	}
	cpuNames := map[string]bool{}
	for _, p := range CPUProfiles() {
		cpuNames[p.Name] = true
	}
	for g, cpus := range tbl {
		GPUProfileByName(g) // panics if unknown
		for _, c := range cpus {
			if !cpuNames[c] {
				t.Errorf("%s pairs with unknown CPU bench %s", g, c)
			}
		}
	}
	if len(tbl) != len(GPUProfiles()) {
		t.Fatalf("%d GPU benchmarks paired, want %d (33 workloads)", len(tbl), len(GPUProfiles()))
	}
}

func TestAddressesStayInRegions(t *testing.T) {
	prof := GPUProfileByName("HS")
	g := NewAddrGen(prof, 3, config.CTARoundRobin, 1)
	wf := NewWavefront(prof.ShareGroup)
	g.BindWavefront(wf)
	group := 3 / prof.ShareGroup
	privLo := PrivLine(3, 0)
	privHi := PrivLine(3, prof.PrivLines)
	shLo := SharedLine(group, 0)
	shHi := SharedLine(group, prof.SharedLines)
	for i := 0; i < 100000; i++ {
		line, _ := g.Next()
		inPriv := line >= privLo && line < privHi
		inShared := line >= shLo && line < shHi
		if !inPriv && !inShared {
			t.Fatalf("address %d outside both regions", line)
		}
	}
}

func TestWriteFraction(t *testing.T) {
	prof := GPUProfileByName("BP") // write-heavy: 0.42
	g := NewAddrGen(prof, 0, config.CTARoundRobin, 1)
	g.BindWavefront(NewWavefront(prof.ShareGroup))
	writes := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if _, w := g.Next(); w {
			writes++
		}
	}
	got := float64(writes) / n
	if got < prof.WriteFrac-0.02 || got > prof.WriteFrac+0.02 {
		t.Fatalf("write fraction %.3f, want ~%.2f", got, prof.WriteFrac)
	}
}

func TestDeterministicStreams(t *testing.T) {
	prof := GPUProfileByName("MM")
	a := NewAddrGen(prof, 5, config.CTARoundRobin, 9)
	b := NewAddrGen(prof, 5, config.CTARoundRobin, 9)
	a.BindWavefront(NewWavefront(prof.ShareGroup))
	b.BindWavefront(NewWavefront(prof.ShareGroup))
	for i := 0; i < 10000; i++ {
		la, wa := a.Next()
		lb, wb := b.Next()
		if la != lb || wa != wb {
			t.Fatalf("streams diverge at %d: (%d,%v) vs (%d,%v)", i, la, wa, lb, wb)
		}
	}
}

func TestDistributedSchedulingBoostsReuse(t *testing.T) {
	prof := GPUProfileByName("2DCON")
	rr := NewAddrGen(prof, 0, config.CTARoundRobin, 1)
	dist := NewAddrGen(prof, 0, config.CTADistributed, 1)
	if dist.reuseP <= rr.reuseP {
		t.Fatalf("distributed reuse %.2f not above round-robin %.2f", dist.reuseP, rr.reuseP)
	}
}

func TestWavefrontOrdering(t *testing.T) {
	// Later members must trail earlier members; the front must be
	// monotone in draws.
	wf := NewWavefront(8)
	last := wf.Front()
	for i := 0; i < 1000; i++ {
		f := wf.advance()
		if f < last {
			t.Fatal("front moved backwards")
		}
		last = f
	}
	if wf.Front() != 1000/(8*drawsPerLine) {
		t.Fatalf("front = %d", wf.Front())
	}
}

func TestHotSetBounds(t *testing.T) {
	f := func(priv uint16) bool {
		h := hotSetLines(int(priv))
		return h >= 48 && h <= 288
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHotSetWithinL1Reach(t *testing.T) {
	// The hot set must fit in the 48 KB L1 (384 lines of 128 B).
	for _, p := range GPUProfiles() {
		if h := hotSetLines(p.PrivLines); h > 288 {
			t.Errorf("%s: hot set %d lines too large", p.Name, h)
		}
	}
}

func TestGroups(t *testing.T) {
	p := GPUProfileByName("HS") // group of 8
	if p.Groups(40) != 5 {
		t.Fatalf("groups = %d", p.Groups(40))
	}
	if p.Groups(41) != 6 {
		t.Fatalf("groups = %d", p.Groups(41))
	}
}

func TestRegionHelpers(t *testing.T) {
	if PrivLine(0, 0) == SharedLine(0, 0) {
		t.Fatal("private and shared regions overlap")
	}
	if PrivLine(1, 0)-PrivLine(0, 0) != cache.Addr(regionSize) {
		t.Fatal("private regions not spaced by regionSize")
	}
}

func TestUnboundWavefrontFallsBackToCold(t *testing.T) {
	// Without a bound wavefront, shared draws must still produce valid
	// addresses (cold span).
	prof := GPUProfileByName("NN")
	g := NewAddrGen(prof, 0, config.CTARoundRobin, 1)
	for i := 0; i < 10000; i++ {
		line, _ := g.Next()
		if line == 0 {
			t.Fatal("zero address")
		}
	}
}
