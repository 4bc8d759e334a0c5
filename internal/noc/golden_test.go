package noc

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"delrep/internal/par"
)

// trafficPattern regenerates the same random packet set on every call.
func trafficPattern(nodes int) []*Packet {
	rng := rand.New(rand.NewSource(11))
	var pkts []*Packet
	for i := 0; i < 400; i++ {
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		if src == dst {
			continue
		}
		class, size := ClassRequest, 1
		if rng.Intn(2) == 0 {
			class, size = ClassReply, 9
		}
		pkts = append(pkts, &Packet{
			ID: uint64(i), Src: src, Dst: dst, Class: class, SizeFlits: size,
		})
	}
	return pkts
}

// goldenOutcomes are the fingerprints the separate serial Network.Tick
// produced at the last commit that had one (709db55): the cross-commit
// anchor that the one engine simulates what that path did. A
// deliberate model change regenerates them from the failure message.
var goldenOutcomes = map[string]string{
	"mesh8x8":   "now=172 flitHops=12932 ejectedSum=32482 latMean=[81.81863979848866 0 0]",
	"mesh10x10": "now=178 flitHops=15955 ejectedSum=29689 latMean=[75.1620253164557 0 0]",
	"fbfly":     "now=85 flitHops=5655 ejectedSum=14404 latMean=[36.28211586901763 0 0]",
	"dragonfly": "now=172 flitHops=7175 ejectedSum=23577 latMean=[59.387909319899244 0 0]",
	"crossbar":  "now=89 flitHops=2021 ejectedSum=10907 latMean=[27.4735516372796 0 0]",
}

// allRouters asks for one tile per router.
const allRouters = 1 << 30

// partitionSizes are the worker counts every topology runs at. 1 is a
// plain run; the rest are handed to the deprecated SetParallel on a
// pool of that many workers, which must change nothing.
var partitionSizes = []int{1, 2, 3, 4, 8, allRouters}

// outcome is everything observable about one trafficPattern run.
type outcome struct {
	now      int64
	flitHops int64
	inj, ej  [2]int64
	ejected  []int64 // per packet
	hops     []int   // per packet
	latCount [3]int64
	latMean  [3]float64
}

// fingerprint condenses an outcome into the form goldenOutcomes pins.
func (o outcome) fingerprint() string {
	var ejSum int64
	for _, e := range o.ejected {
		ejSum += e
	}
	return fmt.Sprintf("now=%d flitHops=%d ejectedSum=%d latMean=%v", o.now, o.flitHops, ejSum, o.latMean)
}

// runPartition drives trafficPattern through topo to full delivery,
// after handing SetParallel k workers when k > 1, and fails if that
// started a goroutine. DebugChecks stays on so the maintained activity
// counters are cross-checked against full scans and dormant routers
// are ticked anyway.
func runPartition(t *testing.T, name string, topo Topology, k int) outcome {
	t.Helper()
	nodes := 64
	if name == "mesh10x10" {
		nodes = 100
	}
	goroutines := runtime.NumGoroutine()
	net, _ := buildNet(t, topo, defaultNoC(), nodes)
	net.DebugChecks = true
	if k > 1 {
		pool := par.NewPool(min(k, len(net.Routers)))
		defer pool.Close()
		net.SetParallel(pool, pool.Size())
	}
	pkts := trafficPattern(nodes)
	if got := runTraffic(t, net, pkts, 30000); got != len(pkts) {
		t.Fatalf("%s k=%d: delivered %d/%d", name, k, got, len(pkts))
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Fatalf("%s k=%d: %d goroutines after the run, %d before", name, k, got, goroutines)
	}
	if err := net.CheckCreditInvariant(); err != nil {
		t.Fatalf("%s k=%d: %v", name, k, err)
	}
	if !net.Quiet() {
		t.Fatalf("%s k=%d: network not quiet after full delivery", name, k)
	}
	o := outcome{now: net.Now(), flitHops: net.FlitHops()}
	for _, c := range []Class{ClassRequest, ClassReply} {
		o.inj[c], o.ej[c] = net.InjectedFlits(c), net.EjectedFlits(c)
	}
	for _, p := range pkts {
		o.ejected = append(o.ejected, p.Ejected)
		o.hops = append(o.hops, p.Hops)
	}
	for p := range net.PktLat {
		o.latCount[p], o.latMean[p] = net.PktLat[p].Count(), net.PktLat[p].Mean()
	}
	return o
}

// forEachPartition runs every topology at every worker count and hands
// check the k=1 outcome next to each k>1 outcome, after requiring the
// k=1 outcome to match its committed golden.
func forEachPartition(t *testing.T, check func(t *testing.T, base, got outcome)) {
	for name, topo := range allTopologies() {
		base := runPartition(t, name, topo, 1)
		if got := base.fingerprint(); got != goldenOutcomes[name] {
			t.Errorf("%s k=1 drifted from the committed golden\n got  %s\n want %s", name, got, goldenOutcomes[name])
		}
		for _, k := range partitionSizes[1:] {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				check(t, base, runPartition(t, name, topo, k))
			})
		}
	}
}

// TestTiledTickMatchesSerial is the integer half of the table: every
// topology must reproduce its golden, and at every worker count handed
// to the deprecated SetParallel it must reproduce the plain run's
// per-packet ejection cycles and hop counts and every network-level
// counter. (The name predates the one-tile engine; every run is now
// the serial one.)
func TestTiledTickMatchesSerial(t *testing.T) {
	forEachPartition(t, func(t *testing.T, base, got outcome) {
		for i := range got.ejected {
			if got.ejected[i] != base.ejected[i] || got.hops[i] != base.hops[i] {
				t.Fatalf("packet %d diverged: ejected %d vs %d, hops %d vs %d",
					i, got.ejected[i], base.ejected[i], got.hops[i], base.hops[i])
			}
		}
		if got.inj != base.inj || got.ej != base.ej {
			t.Fatalf("flit counters diverged: inj %v vs %v, ej %v vs %v", got.inj, base.inj, got.ej, base.ej)
		}
		if got.flitHops != base.flitHops {
			t.Fatalf("FlitHops %d, want %d", got.flitHops, base.flitHops)
		}
		if got.now != base.now {
			t.Fatalf("cycle %d, want %d", got.now, base.now)
		}
	})
}

// TestTiledLatencySamplersMatchSerial is the float half: the
// order-sensitive packet-latency samplers must be bit-identical at
// every worker count.
func TestTiledLatencySamplersMatchSerial(t *testing.T) {
	forEachPartition(t, func(t *testing.T, base, got outcome) {
		if got.latCount != base.latCount || got.latMean != base.latMean {
			t.Fatalf("latency samplers diverged: count %v vs %v, mean %v vs %v",
				got.latCount, base.latCount, got.latMean, base.latMean)
		}
	})
}
