// Package power provides the analytic NoC area and energy model that
// stands in for DSENT [54] and CACTI [47] in the paper's cost analysis
// (22 nm technology node). It encodes the scaling laws those tools
// report — input buffers and VCs scale linearly with channel width,
// the router-internal crossbar scales quadratically with both port
// count and channel width, links scale linearly with width and length —
// and is calibrated against the paper's published figures:
//
//   - baseline 8x8 mesh (two physical 128-bit networks): 2.27 mm^2
//   - double-bandwidth mesh: 5.76 mm^2 (2.5x)
//   - Delegated Replies FRQs (40 cores, 8 entries): 0.092 mm^2
//   - LLC/MSHR core pointers (6 bits, 48-bit addresses): 0.08 mm^2
//   - total Delegated Replies overhead: 0.172 mm^2
package power

import "delrep/internal/config"

// Technology constants (22 nm), calibrated to the paper's numbers.
const (
	// bufferMM2PerFlitBit is buffer area per bit of flit storage.
	bufferMM2PerFlitBit = 6.1e-7
	// xbarMM2PerBit2 scales the crossbar: ports^2 * channelBits^2.
	xbarMM2PerBit2 = 1.08e-8
	// linkMM2PerBitMM is wire area per bit per mm of link length.
	linkMM2PerBitMM = 5.0e-6
	// allocMM2PerPort is allocator/control overhead per port.
	allocMM2PerPort = 1.1e-4
	// LinkLengthMM is the assumed NoC link length (Section VI).
	LinkLengthMM = 4.3
)

// Energy constants (pJ), DSENT-class magnitudes at 22 nm.
const (
	// LinkEnergyPJPerBitMM is dynamic energy per bit per mm traversed.
	LinkEnergyPJPerBitMM = 0.045
	// BufferEnergyPJPerBit is write+read energy per buffered bit.
	BufferEnergyPJPerBit = 0.011
	// XbarEnergyPJPerBit is crossbar traversal energy per bit.
	XbarEnergyPJPerBit = 0.016
)

// RouterConfig describes one router for the area model.
type RouterConfig struct {
	Ports       int
	ChannelBits int
	VCs         int
	FlitsPerVC  int
}

// RouterArea returns one router's area in mm^2: linear buffer term,
// quadratic crossbar term, and per-port allocator overhead.
func RouterArea(rc RouterConfig) float64 {
	bufferBits := float64(rc.Ports * rc.VCs * rc.FlitsPerVC * rc.ChannelBits)
	buffer := bufferMM2PerFlitBit * bufferBits
	xbar := xbarMM2PerBit2 * float64(rc.Ports*rc.Ports) * float64(rc.ChannelBits*rc.ChannelBits)
	alloc := allocMM2PerPort * float64(rc.Ports)
	return buffer + xbar + alloc
}

// LinkArea returns the area of one unidirectional link in mm^2.
func LinkArea(channelBits int, lengthMM float64) float64 {
	return linkMM2PerBitMM * float64(channelBits) * lengthMM
}

// MeshNoCArea returns the total area of a W x H mesh NoC with the given
// per-class configuration, counting both physical networks when split.
func MeshNoCArea(w, h int, noc config.NoC) float64 {
	networks := 2
	vcs := noc.VCsPerClass
	if noc.SharedPhys {
		networks = 1
		vcs = noc.ReqVCs + noc.RepVCs
	}
	bits := noc.ChannelBytes * 8
	routers := float64(w*h) * RouterArea(RouterConfig{
		Ports: 5, ChannelBits: bits, VCs: vcs, FlitsPerVC: noc.FlitsPerVC,
	})
	// Bidirectional mesh links: 2 per adjacent pair, per network.
	nLinks := 2 * (w*(h-1) + h*(w-1))
	links := float64(nLinks) * LinkArea(bits, LinkLengthMM)
	return float64(networks) * (routers + links)
}

// FRQArea returns the total Forwarded Request Queue area across cores:
// each entry holds an address plus requester metadata (~64 bits).
func FRQArea(cores, entries int) float64 {
	const frqMM2PerCoreEntry = 0.092 / (40 * 8) // calibrated to 0.092 mm^2
	return frqMM2PerCoreEntry * float64(cores*entries)
}

// PointerArea returns the LLC/MSHR core-pointer storage area: bits per
// line across the whole LLC, calibrated to the paper's 0.08 mm^2 for
// 6-bit pointers on an 8 MB LLC with 128 B lines.
func PointerArea(llcBytes, lineBytes, pointerBits int) float64 {
	lines := float64(llcBytes / lineBytes)
	const mm2PerBit = 0.08 / (65536 * 6)
	return mm2PerBit * lines * float64(pointerBits)
}

// Activity is the measured NoC activity used by the energy model.
type Activity struct {
	FlitHops     int64 // flit-link traversals
	BufferWrites int64 // flit buffer insertions (~= flit hops)
	ChannelBits  int
}

// DynamicEnergyPJ returns NoC dynamic energy for the activity.
func DynamicEnergyPJ(a Activity) float64 {
	bits := float64(a.ChannelBits)
	link := LinkEnergyPJPerBitMM * bits * LinkLengthMM * float64(a.FlitHops)
	buf := BufferEnergyPJPerBit * bits * float64(a.BufferWrites)
	xbar := XbarEnergyPJPerBit * bits * float64(a.FlitHops)
	return link + buf + xbar
}
