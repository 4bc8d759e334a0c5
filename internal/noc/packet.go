// Package noc implements a flit-level cycle-driven network-on-chip:
// input-queued virtual-channel routers with credit-based wormhole flow
// control and separable (iSLIP-style) allocation, mesh / flattened
// butterfly / dragonfly / crossbar topologies, deterministic (CDR) and
// adaptive (DyXY, Footprint, HARE) routing, CPU-over-GPU priority
// arbitration, and network interfaces with bounded injection buffers —
// the substrate on which network clogging arises and Delegated Replies
// operates.
//
// A Network ticks one two-phase compute/commit cycle over a partition
// into router tiles: one tile, run inline, unless SetParallel spreads
// more across a worker Pool. Results are bit-identical at every
// partition size (see tile.go for the determinism argument).
package noc

// Class separates request and reply traffic, either onto physically
// separate networks (baseline) or onto disjoint VC ranges of one shared
// physical network (AVCP and the virtual-network sensitivity study).
type Class uint8

const (
	// ClassRequest carries requests, probes, and delegated replies.
	ClassRequest Class = iota
	// ClassReply carries data replies and write acknowledgements.
	ClassReply
)

func (c Class) String() string {
	if c == ClassReply {
		return "reply"
	}
	return "request"
}

// Priority orders packets in VC and switch allocation. The baseline
// gives CPU traffic priority over GPU traffic throughout the memory
// system; delegated/remote requests also get priority (deadlock rule).
type Priority uint8

const (
	// PrioGPU is regular GPU traffic (lowest).
	PrioGPU Priority = iota
	// PrioRemote is delegated-reply / remote-request traffic.
	PrioRemote
	// PrioCPU is CPU traffic (highest).
	PrioCPU
)

// Packet is a NoC packet. SizeFlits includes the header flit; data
// payloads occupy ceil(bytes/channelWidth) additional flits.
type Packet struct {
	ID        uint64
	Src       int // source node id
	Dst       int // destination node id
	Class     Class
	Prio      Priority
	SizeFlits int
	Payload   any

	Injected int64 // cycle the head flit entered the source router
	Ejected  int64 // cycle the tail flit was delivered at the destination
	Enqueued int64 // cycle the packet entered the source injection queue
	ReadyAt  int64 // earliest cycle the NI may begin injecting (LLC pipeline)
	Hops     int

	// Trace, when non-nil, collects per-hop phase stamps for the
	// observability layer. It is measurement-only state: it never
	// affects routing or timing.
	Trace *PacketTrace
}

// Flit is one flow-control unit of a packet.
type Flit struct {
	Pkt *Packet
	Seq int
}

// Head reports whether this is the packet's header flit.
func (f Flit) Head() bool { return f.Seq == 0 }

// Tail reports whether this is the packet's last flit.
func (f Flit) Tail() bool { return f.Seq == f.Pkt.SizeFlits-1 }

// Candidate is one routing option: an output port and an inclusive
// range of VCs that may be allocated at the downstream router.
type Candidate struct {
	Port int
	VCLo int
	VCHi int // inclusive
}
