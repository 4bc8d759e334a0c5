package core

import (
	"fmt"
	"runtime"
	"testing"

	"delrep/internal/cache"
	"delrep/internal/config"
	"delrep/internal/cpu"
	"delrep/internal/workload"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs is the process's cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// footprintConfig is an audit-matrix point (cmd/digestdump's
// configuration) at seed 1.
func footprintConfig(scheme config.Scheme, topo config.Topology) config.Config {
	cfg := auditConfig(scheme, topo)
	cfg.Seed = 1
	return cfg
}

// A System's live heap sets how many simulations a host holds at once
// (runner -j, delrepd -j). Most of it is the tag stores: 32-bit lines
// and stamps, a dirty bitset and an aux array only where one is written.
func TestSystemFootprintBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state inflates every allocation")
	}
	const cycles, budget = 6000, 2_750_000
	before := liveHeap()
	sys := NewSystem(footprintConfig(config.SchemeBaseline, config.TopoMesh), "HS", "vips")
	built := liveHeap()
	sys.Run(cycles)
	after := liveHeap()
	runtime.KeepAlive(sys)
	t.Logf("HS+vips mesh System: %d KB built, %d KB after %d cycles (budget %d KB)",
		(built-before)>>10, (after-before)>>10, cycles, budget>>10)
	if live := int64(after) - int64(before); live > budget {
		t.Errorf("a System holds %d B of live heap after %d cycles, budget %d B", live, cycles, budget)
	}
}

// Steady-state cycles allocate almost nothing: packets and messages
// come from the System's free lists, MSHR targets are stored unboxed in
// recycled entries, DRAM requests are held by value and a CPU core's
// outstanding reads live in its fixed MLP window.
func TestSystemTickAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state inflates every allocation")
	}
	const warm, cycles, budget = 2000, 5000, 800
	for _, scheme := range []config.Scheme{config.SchemeBaseline, config.SchemeDelegatedReplies, config.SchemeRP} {
		for _, topo := range []config.Topology{config.TopoMesh, config.TopoDragonfly} {
			t.Run(fmt.Sprintf("%v/%v", scheme, topo), func(t *testing.T) {
				sys := NewSystem(footprintConfig(scheme, topo), "HS", "vips")
				sys.Run(warm)
				before := mallocs()
				sys.Run(cycles)
				n := mallocs() - before
				t.Logf("%d mallocs over %d steady-state cycles (budget %d)", n, cycles, budget)
				if n > budget {
					t.Errorf("%d mallocs over %d steady-state cycles, budget %d", n, cycles, budget)
				}
			})
		}
	}
}

// The tag store keeps 32-bit line numbers: on every named layout, with
// every GPU benchmark, the highest line the address map can produce —
// the last CPU region's last line, the last SM's private region, the
// last sharing group's region — is at most cache.MaxLine.
func TestAddressMapFitsTagStore(t *testing.T) {
	layouts := append(config.AllLayouts(), config.ScaledBaseline(10, 10), config.ScaledBaseline(12, 12))
	for _, l := range layouts {
		gpus, _, _ := l.Counts()
		cpuNodes := l.NodesOf(config.KindCPU)
		for _, p := range workload.GPUProfiles() {
			top := max(
				workload.PrivLine(gpus-1, p.PrivLines-1),
				workload.SharedLine(p.Groups(gpus)-1, p.SharedLines-1),
				cache.Addr(workload.CPUBase+uint64(cpuNodes[len(cpuNodes)-1]+1)*cpu.RegionLines-1),
			)
			if top > cache.MaxLine {
				t.Errorf("%s/%s: highest line %#x is above the tag store's MaxLine %#x", l.Name, p.Name, top, cache.MaxLine)
			}
		}
	}
}
