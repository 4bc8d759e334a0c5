// Package config defines the simulated heterogeneous CPU-GPU architecture:
// the Table I machine parameters from the paper, the four chip layouts of
// Figure 1, and the enumerations that select schemes, topologies, routing
// policies, and L1 organisations across experiments.
package config

import (
	"fmt"
	"math"
	"strconv"
)

// NodeKind classifies a NoC node.
type NodeKind uint8

const (
	// KindGPU is a GPU core node (SM + private L1).
	KindGPU NodeKind = iota
	// KindCPU is a CPU core node (latency-sensitive, prioritized traffic).
	KindCPU
	// KindMem is a memory node (LLC slice + memory controller).
	KindMem
)

func (k NodeKind) String() string {
	switch k {
	case KindGPU:
		return "GPU"
	case KindCPU:
		return "CPU"
	case KindMem:
		return "MEM"
	}
	return "???"
}

// Scheme selects the clogging-mitigation mechanism under evaluation.
type Scheme uint8

const (
	// SchemeBaseline is the carefully designed baseline (Section V).
	SchemeBaseline Scheme = iota
	// SchemeDelegatedReplies is the paper's contribution (Sections II, IV).
	SchemeDelegatedReplies
	// SchemeRP is Realistic Probing [31], the strongest prior approach.
	SchemeRP
)

func (s Scheme) String() string {
	switch s {
	case SchemeBaseline:
		return "Baseline"
	case SchemeDelegatedReplies:
		return "DelegatedReplies"
	case SchemeRP:
		return "RP"
	}
	return "???"
}

// L1Org selects the GPU L1 cache organisation (Figure 15).
type L1Org uint8

const (
	// L1Private gives each SM its own L1 (baseline organisation).
	L1Private L1Org = iota
	// L1DCL1 statically shares one 4-slice L1 between 8 GPU cores [30].
	L1DCL1
	// L1DynEB dynamically chooses shared vs private per epoch [29].
	L1DynEB
)

func (o L1Org) String() string {
	switch o {
	case L1Private:
		return "Private"
	case L1DCL1:
		return "DC-L1"
	case L1DynEB:
		return "DynEB"
	}
	return "???"
}

// CTASched selects the CTA (thread block) scheduling policy.
type CTASched uint8

const (
	// CTARoundRobin assigns consecutive CTAs to consecutive SMs.
	CTARoundRobin CTASched = iota
	// CTADistributed assigns contiguous CTA chunks to each SM, improving
	// intra-SM locality (as in MCM-GPU distributed scheduling [8]).
	CTADistributed
)

func (c CTASched) String() string {
	if c == CTADistributed {
		return "Distributed"
	}
	return "RoundRobin"
}

// Topology selects the NoC topology.
type Topology uint8

const (
	// TopoMesh is the baseline 2D mesh.
	TopoMesh Topology = iota
	// TopoFlattenedButterfly fully connects rows and columns [41].
	TopoFlattenedButterfly
	// TopoDragonfly groups routers with all-to-all local and one global
	// link per router [42].
	TopoDragonfly
	// TopoCrossbar is a single-stage crossbar with core-to-core links.
	TopoCrossbar
)

func (t Topology) String() string {
	switch t {
	case TopoMesh:
		return "Mesh"
	case TopoFlattenedButterfly:
		return "FlattenedButterfly"
	case TopoDragonfly:
		return "Dragonfly"
	case TopoCrossbar:
		return "Crossbar"
	}
	return "???"
}

// DimOrder is a dimension order for DOR/CDR routing on the mesh.
type DimOrder uint8

const (
	// OrderXY routes along X first, then Y.
	OrderXY DimOrder = iota
	// OrderYX routes along Y first, then X.
	OrderYX
)

func (d DimOrder) String() string {
	if d == OrderYX {
		return "YX"
	}
	return "XY"
}

// RoutingAlg selects the routing algorithm on the mesh.
type RoutingAlg uint8

const (
	// RoutingCDR is class-based deterministic routing [3]: requests and
	// replies may use different dimension orders (the baseline policy).
	RoutingCDR RoutingAlg = iota
	// RoutingAdaptive is minimal adaptive routing: any productive port
	// on all but the class's lowest VC, plus a DOR escape on that VC.
	RoutingAdaptive
)

func (r RoutingAlg) String() string {
	switch r {
	case RoutingCDR:
		return "CDR"
	case RoutingAdaptive:
		return "Adaptive"
	}
	return "???"
}

// NoC holds network-on-chip parameters (Table I plus mechanism knobs).
type NoC struct {
	Topology     Topology
	Routing      RoutingAlg
	ReqOrder     DimOrder // dimension order for the request network (CDR)
	RepOrder     DimOrder // dimension order for the reply network (CDR)
	ChannelBytes int      // link/flit width in bytes (16 B baseline)
	VCsPerClass  int      // virtual channels per traffic class (2 baseline)
	FlitsPerVC   int      // VC buffer depth in flits (4 baseline)
	RouterDelay  int      // router pipeline depth in cycles (4 baseline)
	LinkDelay    int      // link traversal cycles (1 baseline)
	InjectionBuf int      // memory-node injection buffer, in packets
	SharedPhys   bool     // one physical network with virtual networks
	ReqVCs       int      // with SharedPhys: VCs for the request class
	RepVCs       int      // with SharedPhys: VCs for the reply class
}

// GPU holds GPU core parameters.
type GPU struct {
	WarpsPerSM   int // concurrent warps per SM (48)
	IssueWidth   int // instructions issued per cycle (2 GTO schedulers)
	L1Bytes      int // L1 data cache size (48 KB)
	L1Assoc      int
	L1LineBytes  int // 128 B
	L1MSHRs      int
	FRQEntries   int // forwarded request queue entries (8)
	MaxOutWrites int // outstanding write-through budget per SM
	Org          L1Org
	CTASched     CTASched
	DynEBEpoch   int // cycles per DynEB sampling epoch
	KernelCycles int // L1 flush period emulating kernel boundaries (0=off)
}

// CPU holds CPU core parameters.
type CPU struct {
	L1LineBytes int // 64 B
}

// LLC holds shared last-level cache parameters.
type LLC struct {
	SliceBytes int // per memory node (1 MB)
	Assoc      int // 16
	LineBytes  int // 128 B
	MSHRs      int // outstanding DRAM misses per slice
	Latency    int // slice access latency in cycles
}

// DRAM holds GDDR5 memory controller parameters (per MC, Table I).
type DRAM struct {
	Banks    int
	TCL      int
	TRP      int
	TRC      int
	TRAS     int
	TRCD     int
	TRRD     int
	TCCD     int
	TWR      int
	BurstCyc int // data-bus cycles per 128 B line transfer
	QueueCap int
}

// RP holds Realistic Probing parameters.
type RP struct {
	ProbeFanout   int     // number of remote L1s probed per predicted-shared miss
	PredThreshold float64 // probe when EWMA success rate exceeds this
	SampleEvery   int     // always-probe sampling period for training
}

// DelRep holds Delegated Replies parameters. The ablation knob
// explores the design space around the paper's choices.
type DelRep struct {
	MaxDelegationsPerCycle int // delegation bandwidth at a memory node
	// AlwaysDelegate (ablation) delegates every delegatable reply
	// instead of only when the reply network cannot accept traffic; the
	// paper argues this needlessly exposes cores to delegation latency.
	AlwaysDelegate bool
}

// Config is the complete simulated system configuration.
type Config struct {
	Layout        Layout
	Scheme        Scheme
	NoC           NoC
	GPU           GPU
	CPU           CPU
	LLC           LLC
	DRAM          DRAM
	RP            RP
	DelRep        DelRep
	Seed          int64
	WarmupCycles  int64
	MeasureCycles int64
}

// AppendKey appends c rendered exactly as fmt's %+v prints it — field
// names in declaration order, enums and the layout by their String
// methods — and returns the extended buffer. It is the configuration
// part of every run key (runner.Key), written out by hand because
// fmt's reflection was the largest cost of a warm sweep. A field added
// to Config or to one of its sub-structs must be added here too:
// TestAppendKeyMatchesSprintf fails until it is.
func (c *Config) AppendKey(b []byte) []byte {
	b = append(b, "{Layout:"...)
	b = c.Layout.appendGrid(b)
	b = appendField(b, " Scheme:", c.Scheme.String())

	n := &c.NoC
	b = appendField(b, " NoC:{Topology:", n.Topology.String())
	b = appendField(b, " Routing:", n.Routing.String())
	b = appendField(b, " ReqOrder:", n.ReqOrder.String())
	b = appendField(b, " RepOrder:", n.RepOrder.String())
	b = appendInt(b, " ChannelBytes:", n.ChannelBytes)
	b = appendInt(b, " VCsPerClass:", n.VCsPerClass)
	b = appendInt(b, " FlitsPerVC:", n.FlitsPerVC)
	b = appendInt(b, " RouterDelay:", n.RouterDelay)
	b = appendInt(b, " LinkDelay:", n.LinkDelay)
	b = appendInt(b, " InjectionBuf:", n.InjectionBuf)
	b = appendBool(b, " SharedPhys:", n.SharedPhys)
	b = appendInt(b, " ReqVCs:", n.ReqVCs)
	b = appendInt(b, " RepVCs:", n.RepVCs)

	g := &c.GPU
	b = appendInt(b, "} GPU:{WarpsPerSM:", g.WarpsPerSM)
	b = appendInt(b, " IssueWidth:", g.IssueWidth)
	b = appendInt(b, " L1Bytes:", g.L1Bytes)
	b = appendInt(b, " L1Assoc:", g.L1Assoc)
	b = appendInt(b, " L1LineBytes:", g.L1LineBytes)
	b = appendInt(b, " L1MSHRs:", g.L1MSHRs)
	b = appendInt(b, " FRQEntries:", g.FRQEntries)
	b = appendInt(b, " MaxOutWrites:", g.MaxOutWrites)
	b = appendField(b, " Org:", g.Org.String())
	b = appendField(b, " CTASched:", g.CTASched.String())
	b = appendInt(b, " DynEBEpoch:", g.DynEBEpoch)
	b = appendInt(b, " KernelCycles:", g.KernelCycles)

	b = appendInt(b, "} CPU:{L1LineBytes:", c.CPU.L1LineBytes)

	l := &c.LLC
	b = appendInt(b, "} LLC:{SliceBytes:", l.SliceBytes)
	b = appendInt(b, " Assoc:", l.Assoc)
	b = appendInt(b, " LineBytes:", l.LineBytes)
	b = appendInt(b, " MSHRs:", l.MSHRs)
	b = appendInt(b, " Latency:", l.Latency)

	d := &c.DRAM
	b = appendInt(b, "} DRAM:{Banks:", d.Banks)
	b = appendInt(b, " TCL:", d.TCL)
	b = appendInt(b, " TRP:", d.TRP)
	b = appendInt(b, " TRC:", d.TRC)
	b = appendInt(b, " TRAS:", d.TRAS)
	b = appendInt(b, " TRCD:", d.TRCD)
	b = appendInt(b, " TRRD:", d.TRRD)
	b = appendInt(b, " TCCD:", d.TCCD)
	b = appendInt(b, " TWR:", d.TWR)
	b = appendInt(b, " BurstCyc:", d.BurstCyc)
	b = appendInt(b, " QueueCap:", d.QueueCap)

	b = appendInt(b, "} RP:{ProbeFanout:", c.RP.ProbeFanout)
	// 'g' with the shortest precision is %v's float form, NaN, ±Inf
	// and −0 included.
	b = append(b, " PredThreshold:"...)
	b = strconv.AppendFloat(b, c.RP.PredThreshold, 'g', -1, 64)
	b = appendInt(b, " SampleEvery:", c.RP.SampleEvery)

	b = appendInt(b, "} DelRep:{MaxDelegationsPerCycle:", c.DelRep.MaxDelegationsPerCycle)
	b = appendBool(b, " AlwaysDelegate:", c.DelRep.AlwaysDelegate)

	b = appendInt(b, "} Seed:", c.Seed)
	b = appendInt(b, " WarmupCycles:", c.WarmupCycles)
	b = appendInt(b, " MeasureCycles:", c.MeasureCycles)
	return append(b, '}')
}

// appendField, appendInt and appendBool append one "name:value" pair
// of AppendKey; name carries the separator in front of it.
func appendField(b []byte, name, v string) []byte {
	return append(append(b, name...), v...)
}

func appendInt[T int | int64](b []byte, name string, v T) []byte {
	return strconv.AppendInt(append(b, name...), int64(v), 10)
}

func appendBool(b []byte, name string, v bool) []byte {
	return strconv.AppendBool(append(b, name...), v)
}

// Default returns the Table I baseline configuration on the Figure 1a
// layout with CDR YX(request)/XY(reply) routing.
func Default() Config {
	return Config{
		Layout: BaselineLayout(),
		Scheme: SchemeBaseline,
		NoC: NoC{
			Topology:     TopoMesh,
			Routing:      RoutingCDR,
			ReqOrder:     OrderYX,
			RepOrder:     OrderXY,
			ChannelBytes: 16,
			VCsPerClass:  2,
			FlitsPerVC:   4,
			RouterDelay:  4,
			LinkDelay:    1,
			InjectionBuf: 8,
		},
		GPU: GPU{
			WarpsPerSM:   48,
			IssueWidth:   2,
			L1Bytes:      48 * 1024,
			L1Assoc:      4,
			L1LineBytes:  128,
			L1MSHRs:      32,
			FRQEntries:   8,
			MaxOutWrites: 16,
			Org:          L1Private,
			CTASched:     CTARoundRobin,
			DynEBEpoch:   4096,
		},
		CPU: CPU{
			L1LineBytes: 64,
		},
		LLC: LLC{
			SliceBytes: 1 << 20,
			Assoc:      16,
			LineBytes:  128,
			MSHRs:      64,
			Latency:    20,
		},
		DRAM: DRAM{
			Banks:    16,
			TCL:      12,
			TRP:      12,
			TRC:      40,
			TRAS:     28,
			TRCD:     12,
			TRRD:     6,
			TCCD:     2,
			TWR:      12,
			BurstCyc: 6,
			QueueCap: 64,
		},
		RP: RP{
			ProbeFanout:   6,
			PredThreshold: 0.1,
			SampleEvery:   32,
		},
		DelRep: DelRep{
			MaxDelegationsPerCycle: 1,
		},
		Seed:          1,
		WarmupCycles:  20_000,
		MeasureCycles: 60_000,
	}
}

// FlitsForData returns the number of flits for a packet carrying the
// given payload bytes plus one header flit.
func (n NoC) FlitsForData(dataBytes int) int {
	if dataBytes <= 0 {
		return 1
	}
	return 1 + (dataBytes+n.ChannelBytes-1)/n.ChannelBytes
}

// MaxFlitsPerVC bounds the VC buffer depth: 64× Table I's 4 flits.
// Every router allocates ports×VCs×depth flit slots, so an unbounded
// depth lets one spec exhaust the host's memory.
const MaxFlitsPerVC = 256

// Validate checks structural consistency and returns a descriptive error.
func (c Config) Validate() error {
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if c.NoC.ChannelBytes <= 0 || c.NoC.VCsPerClass <= 0 || c.NoC.FlitsPerVC <= 0 {
		return fmt.Errorf("config: invalid NoC parameters %+v", c.NoC)
	}
	if c.NoC.FlitsPerVC > MaxFlitsPerVC {
		return fmt.Errorf("config: FlitsPerVC %d exceeds %d", c.NoC.FlitsPerVC, MaxFlitsPerVC)
	}
	if c.NoC.SharedPhys && c.NoC.ReqVCs+c.NoC.RepVCs == 0 {
		return fmt.Errorf("config: shared physical network requires ReqVCs/RepVCs")
	}
	if c.GPU.L1Bytes%(c.GPU.L1Assoc*c.GPU.L1LineBytes) != 0 {
		return fmt.Errorf("config: GPU L1 geometry not divisible: %d/%d-way/%dB",
			c.GPU.L1Bytes, c.GPU.L1Assoc, c.GPU.L1LineBytes)
	}
	if c.LLC.SliceBytes%(c.LLC.Assoc*c.LLC.LineBytes) != 0 {
		return fmt.Errorf("config: LLC geometry not divisible")
	}
	if c.MeasureCycles <= 0 {
		return fmt.Errorf("config: MeasureCycles must be positive")
	}
	if c.WarmupCycles < 0 || c.WarmupCycles > math.MaxInt64-c.MeasureCycles {
		return fmt.Errorf("config: WarmupCycles %d negative or overflowing with MeasureCycles", c.WarmupCycles)
	}
	return nil
}
