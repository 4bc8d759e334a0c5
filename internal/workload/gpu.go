// Package workload provides the synthetic CPU-GPU workloads that stand
// in for the paper's CUDA/Rodinia/PolyBench kernels and Parsec traces.
//
// The GPU generators are parameterised per benchmark to reproduce the
// published per-benchmark statistics that Delegated Replies actually
// depends on: L1 miss rate, read/write mix, NoC injection rate
// (0.324-0.704 flits/cycle, Section VI), and inter-core locality (the
// fraction of L1 misses resident in remote L1s, Figure 2). The CPU
// profiles reproduce Parsec injection rates (0.013-0.084 flits/cycle)
// and latency sensitivity.
package workload

import (
	"math/rand"

	"delrep/internal/cache"
	"delrep/internal/config"
)

// GPUProfile characterises one GPU benchmark's memory behaviour.
type GPUProfile struct {
	Name  string
	GridX int // CTA grid from Table II (documentation; sharing-group
	GridY int // structure below is what drives behaviour)

	// Warp phase structure: each warp repeatedly issues ComputeLen
	// compute instructions, then PhaseLoads memory operations, then
	// barriers on their completion. ComputeLen/PhaseLoads sets the
	// compute:memory ratio and hence the injection rate.
	ComputeLen int
	PhaseLoads int

	WriteFrac float64 // fraction of memory ops that are stores

	// Sharing structure. SharedFrac of accesses target a region shared
	// by a neighborhood of ShareGroup SMs (stencil halos, GEMM tiles);
	// the rest target the SM's private region. Region sizes are in
	// 128 B lines; hot working sets much larger than the L1 raise the
	// miss rate, shared regions larger than the neighborhood's
	// aggregate L1 capacity produce remote misses (3DCON, BT, LPS).
	SharedFrac  float64
	ShareGroup  int
	PrivLines   int
	SharedLines int

	// ReuseP is the probability an access re-references a recently
	// touched line (temporal locality; controls the L1 hit rate).
	ReuseP float64
	// DistBoost is added to ReuseP under distributed CTA scheduling,
	// which co-locates neighbouring CTAs on an SM.
	DistBoost float64
	// SeqP is the probability a region access continues a sequential
	// stream (spatial locality; drives DRAM row-buffer hits).
	SeqP float64
	// SharedWinP is the probability a shared-region access targets the
	// region's sliding window: the tile/halo front the whole
	// neighbourhood is working on right now. Window lines are touched
	// by several SMs while resident, so a local miss frequently finds
	// the line in a remote L1 (Figure 2 locality, Figure 14 remote
	// hits). Benchmarks with low SharedWinP spread accesses over the
	// cold span and produce remote misses instead.
	SharedWinP float64
	// WinLag is the wavefront lag in lines between successive SMs of a
	// sharing group: small lags leave swept lines resident in the
	// leader's L1 (remote hits), large lags find them evicted (remote
	// misses).
	WinLag int
}

// GPUProfiles returns the eleven GPU benchmarks of Table II in paper
// order. The parameters are calibrated so that the simulated Figure 2
// inter-core locality, Figure 14 miss breakdown, and Section VI
// injection rates land close to the published values.
func GPUProfiles() []GPUProfile {
	return []GPUProfile{
		// Footprints are sized so the aggregate working set (40 private
		// regions + the sharing-group regions) fits the 8 MB LLC: the
		// LLC hit rate is then high and the bottleneck is the memory
		// nodes' reply links, exactly the paper's clogging regime.
		//
		// High inter-core locality stencils: most of the halo and tile
		// data a CTA misses on was recently loaded by a neighbour CTA.
		{Name: "2DCON", GridX: 128, GridY: 512, ComputeLen: 7, PhaseLoads: 4, WriteFrac: 0.08,
			SharedFrac: 0.78, ShareGroup: 8, PrivLines: 600, SharedLines: 4000, ReuseP: 0.62, DistBoost: 0.12, SeqP: 0.25, SharedWinP: 0.78, WinLag: 16},
		// 3D stencil: shared halo exceeds the neighbourhood's aggregate
		// L1 capacity, so many delegated replies find the line evicted.
		{Name: "3DCON", GridX: 8, GridY: 32, ComputeLen: 8, PhaseLoads: 4, WriteFrac: 0.10,
			SharedFrac: 0.72, ShareGroup: 8, PrivLines: 600, SharedLines: 6000, ReuseP: 0.62, DistBoost: 0.10, SeqP: 0.25, SharedWinP: 0.45, WinLag: 224},
		// B+ tree traversal: pointer chasing over a large shared tree.
		{Name: "BT", GridX: 60000, GridY: 1, ComputeLen: 9, PhaseLoads: 4, WriteFrac: 0.14,
			SharedFrac: 0.58, ShareGroup: 10, PrivLines: 700, SharedLines: 5000, ReuseP: 0.60, DistBoost: 0.08, SeqP: 0.2, SharedWinP: 0.38, WinLag: 256},
		// Streamcluster: high LLC hit rate, few delegations; benefits
		// from shared-L1 capacity (Figure 15).
		{Name: "SC", GridX: 1954, GridY: 1, ComputeLen: 12, PhaseLoads: 4, WriteFrac: 0.18,
			SharedFrac: 0.42, ShareGroup: 8, PrivLines: 500, SharedLines: 2200, ReuseP: 0.76, DistBoost: 0.06, SeqP: 0.25, SharedWinP: 0.55, WinLag: 24},
		// Hotspot: the paper's best case (+67.9%); dense stencil halos.
		{Name: "HS", GridX: 342, GridY: 342, ComputeLen: 6, PhaseLoads: 4, WriteFrac: 0.07,
			SharedFrac: 0.82, ShareGroup: 8, PrivLines: 600, SharedLines: 4000, ReuseP: 0.60, DistBoost: 0.12, SeqP: 0.25, SharedWinP: 0.82, WinLag: 16},
		// Laplace solver: shared planes with frequent replacement.
		{Name: "LPS", GridX: 63, GridY: 500, ComputeLen: 8, PhaseLoads: 4, WriteFrac: 0.12,
			SharedFrac: 0.62, ShareGroup: 8, PrivLines: 650, SharedLines: 5500, ReuseP: 0.60, DistBoost: 0.09, SeqP: 0.25, SharedWinP: 0.45, WinLag: 224},
		// LU decomposition: small working set, high LLC hit rate.
		{Name: "LUD", GridX: 127, GridY: 127, ComputeLen: 12, PhaseLoads: 4, WriteFrac: 0.15,
			SharedFrac: 0.45, ShareGroup: 8, PrivLines: 450, SharedLines: 1800, ReuseP: 0.76, DistBoost: 0.05, SeqP: 0.25, SharedWinP: 0.62, WinLag: 24},
		// Matrix multiply: large tiles shared across many SMs.
		{Name: "MM", GridX: 1000, GridY: 2000, ComputeLen: 7, PhaseLoads: 4, WriteFrac: 0.05,
			SharedFrac: 0.68, ShareGroup: 12, PrivLines: 550, SharedLines: 5000, ReuseP: 0.62, DistBoost: 0.08, SeqP: 0.3, SharedWinP: 0.72, WinLag: 24},
		// Neural net: small hot weight set, very high locality, low miss
		// rate (4.3% in the paper), so gains are modest despite locality.
		{Name: "NN", GridX: 6, GridY: 6000, ComputeLen: 8, PhaseLoads: 4, WriteFrac: 0.04,
			SharedFrac: 0.85, ShareGroup: 8, PrivLines: 260, SharedLines: 420, ReuseP: 0.86, DistBoost: 0.04, SeqP: 0.25, SharedWinP: 0.85, WinLag: 12},
		// Srad: diffusion stencil, moderate sharing.
		{Name: "SRAD", GridX: 128, GridY: 128, ComputeLen: 8, PhaseLoads: 4, WriteFrac: 0.11,
			SharedFrac: 0.64, ShareGroup: 8, PrivLines: 600, SharedLines: 4500, ReuseP: 0.60, DistBoost: 0.10, SeqP: 0.25, SharedWinP: 0.68, WinLag: 24},
		// Backprop: write-heavy (stresses the request network), little
		// read sharing; the paper's worst case for AVCP.
		{Name: "BP", GridX: 1, GridY: 16384, ComputeLen: 9, PhaseLoads: 4, WriteFrac: 0.42,
			SharedFrac: 0.28, ShareGroup: 4, PrivLines: 550, SharedLines: 2200, ReuseP: 0.64, DistBoost: 0.06, SeqP: 0.25, SharedWinP: 0.45, WinLag: 96},
	}
}

// GPUNames returns the GPU benchmark names in paper order.
func GPUNames() []string {
	var names []string
	for _, p := range GPUProfiles() {
		names = append(names, p.Name)
	}
	return names
}

// GPUProfileByName returns the named profile; it panics on unknown names
// (a configuration error).
func GPUProfileByName(name string) GPUProfile {
	for _, p := range GPUProfiles() {
		if p.Name == name {
			return p
		}
	}
	panic("workload: unknown GPU benchmark " + name)
}

// Address space carving (line addresses): each SM's private region,
// each sharing neighbourhood's region and the CPU cores' regions live
// in disjoint ranges.
const (
	privBase   = 1 << 30
	sharedBase = 2 << 30
	// CPUBase is where the CPU regions start, above every GPU region.
	CPUBase    = 3 << 30
	regionSize = 1 << 22 // lines per region slot
)

// IsShared reports whether a line lies in a sharing neighbourhood's
// region.
func IsShared(line cache.Addr) bool { return line >= sharedBase && line < CPUBase }

// PrivLine returns line i of SM sm's private region.
func PrivLine(sm, i int) cache.Addr {
	return cache.Addr(privBase + uint64(sm)*regionSize + uint64(i))
}

// SharedLine returns line i of a sharing group's region.
func SharedLine(group, i int) cache.Addr {
	return cache.Addr(sharedBase + uint64(group)*regionSize + uint64(i))
}

// Groups returns the number of sharing neighbourhoods for n SMs.
func (p GPUProfile) Groups(n int) int {
	return (n + p.ShareGroup - 1) / p.ShareGroup
}

// AddrGen produces the memory reference stream of one SM.
//
// Temporal locality is modelled as a stationary per-SM hot set (the
// tile/constant data a kernel touches constantly): hot-set touches are
// frequent enough that the lines stay L1-resident, so the L1 hit rate
// is a structural property of the benchmark rather than an artifact of
// miss latency. Fresh picks walk the private/shared regions and carry
// the streaming and inter-core-sharing behaviour.
type AddrGen struct {
	prof      GPUProfile
	rng       *rand.Rand
	sm        int
	group     int
	hotLines  int
	reuseP    float64
	seqPtr    map[uint64]uint64 // per-region sequential cursor
	winAbs    int64             // absolute wavefront sweep cursor
	wavefront *Wavefront        // shared group sweep front
}

// BindWavefront attaches the sharing group's common sweep front; the
// shared-window component is inactive until it is bound.
func (g *AddrGen) BindWavefront(w *Wavefront) { g.wavefront = w }

// hotSetLines sizes the per-SM hot set: a fraction of the private
// region, bounded so it fits comfortably inside the L1.
func hotSetLines(privLines int) int {
	h := privLines / 4
	if h < 48 {
		h = 48
	}
	if h > 288 {
		h = 288
	}
	return h
}

// NewAddrGen builds the generator for SM sm under the given CTA
// scheduling policy.
func NewAddrGen(prof GPUProfile, sm int, sched config.CTASched, seed int64) *AddrGen {
	g := &AddrGen{
		prof:     prof,
		rng:      rand.New(rand.NewSource(seed ^ int64(sm)*0x9e37 + 1)),
		sm:       sm,
		group:    sm / prof.ShareGroup,
		hotLines: hotSetLines(prof.PrivLines),
		reuseP:   prof.ReuseP,
		seqPtr:   make(map[uint64]uint64),
	}
	if sched == config.CTADistributed {
		g.reuseP += prof.DistBoost
		if g.reuseP > 0.95 {
			g.reuseP = 0.95
		}
	}
	return g
}

// Wavefront geometry. Each sharing group sweeps its region as a
// pipelined wavefront: the front advances with the group's aggregate
// shared-window draws (one line per drawsPerLine draws per member, so
// every member touches each line ~drawsPerLine times on average), and
// SM k of the group trails the front by k*WinLag lines — CTAs
// processing successive tiles of the same data. A line missed by SM k
// was recently touched by the members ahead of it: short lags keep it
// L1-resident remotely (high inter-core locality, the stencil
// benchmarks), long lags find it already evicted (remote misses, the
// 3DCON/BT/LPS behaviour). The draw-anchored front self-paces with the
// workload, so the pipeline structure is preserved under any scheme.
const (
	winSlack     = 96
	drawsPerLine = 2
)

// Wavefront is the shared sweep front of one sharing group.
type Wavefront struct {
	draws   int64
	members int
}

// NewWavefront builds the front for a group with the given member count.
func NewWavefront(members int) *Wavefront {
	if members < 1 {
		members = 1
	}
	return &Wavefront{members: members}
}

// advance records one window draw and returns the front line.
func (w *Wavefront) advance() int64 {
	w.draws++
	return w.draws / int64(w.members*drawsPerLine)
}

// Front returns the current front line without advancing.
func (w *Wavefront) Front() int64 {
	return w.draws / int64(w.members*drawsPerLine)
}

// pick draws a fresh line address from the private or shared region.
func (g *AddrGen) pick() cache.Addr {
	var base uint64
	var span int
	if g.rng.Float64() < g.prof.SharedFrac {
		base = sharedBase + uint64(g.group)*regionSize
		span = g.prof.SharedLines
		if g.rng.Float64() < g.prof.SharedWinP && g.wavefront != nil {
			front := g.wavefront.advance()
			target := front - int64(g.sm%g.prof.ShareGroup)*int64(g.prof.WinLag)
			if target < 0 {
				target = 0
			}
			if g.winAbs < target-winSlack {
				g.winAbs = target - winSlack // skip ahead (dropped tiles)
			}
			if g.winAbs < target {
				g.winAbs++
				return cache.Addr(base + uint64(g.winAbs%int64(span)))
			}
			// Caught up with the tile pipeline: spill to the cold span
			// (gather/indirect accesses of the same kernel).
		}
	} else {
		base = privBase + uint64(g.sm)*regionSize
		span = g.prof.PrivLines
	}
	if g.rng.Float64() < g.prof.SeqP {
		ptr := g.seqPtr[base]
		g.seqPtr[base] = (ptr + 1) % uint64(span)
		return cache.Addr(base + ptr)
	}
	return cache.Addr(base + uint64(g.rng.Intn(span)))
}

// Next returns the next line address and whether it is a store.
// Hot-set touches draw from the first hotLines of the private region
// (always L1-resident in steady state); the rest are fresh region picks.
func (g *AddrGen) Next() (line cache.Addr, write bool) {
	if g.rng.Float64() < g.reuseP {
		base := privBase + uint64(g.sm)*regionSize
		line = cache.Addr(base + uint64(g.rng.Intn(g.hotLines)))
	} else {
		line = g.pick()
	}
	return line, g.rng.Float64() < g.prof.WriteFrac
}
