package noc

import (
	"fmt"

	"delrep/internal/config"
)

// Topology describes router counts, wiring, node attachment, and routing
// for one physical network.
type Topology interface {
	// Name identifies the topology for reports.
	Name() string
	// NumRouters returns the router count.
	NumRouters() int
	// NumPorts returns the port count of router r (including local ports).
	NumPorts(r int) int
	// Wire returns the peer router and port for an inter-router port, or
	// ok=false for local/unconnected ports.
	Wire(r, port int) (peer, peerPort int, ok bool)
	// NodePort returns the router and local port a node attaches to.
	NodePort(node int) (router, port int)
	// Route appends the candidate output ports for packet p at router r
	// to buf. It must be a pure function of (r, p.Dst, p.Class):
	// NewNetwork tabulates it per router, and a head's route is a row.
	Route(net *Network, r int, p *Packet, buf []Candidate) []Candidate
}

// Mesh port indices.
const (
	PortLocal = 0
	PortE     = 1
	PortW     = 2
	PortN     = 3
	PortS     = 4
)

// MeshPolicy selects the mesh routing algorithm. RoutingCDR applies
// ReqOrder to requests and RepOrder to replies (class-based
// deterministic routing [3]); RoutingAdaptive uses VC 0 of the class
// range as a DOR escape channel and the remaining VCs adaptively.
type MeshPolicy struct {
	Alg      config.RoutingAlg
	ReqOrder config.DimOrder
	RepOrder config.DimOrder
}

// Mesh is a W x H 2D mesh, one router per node.
type Mesh struct {
	W, H   int
	Policy MeshPolicy
}

// NewMesh builds a mesh topology.
func NewMesh(w, h int, p MeshPolicy) *Mesh { return &Mesh{W: w, H: h, Policy: p} }

func (m *Mesh) Name() string              { return fmt.Sprintf("mesh%dx%d", m.W, m.H) }
func (m *Mesh) NumRouters() int           { return m.W * m.H }
func (m *Mesh) NumPorts(int) int          { return 5 }
func (m *Mesh) NodePort(n int) (int, int) { return n, PortLocal }

func (m *Mesh) xy(r int) (int, int) { return r % m.W, r / m.W }

// Wire connects E<->W and N<->S neighbors.
func (m *Mesh) Wire(r, port int) (int, int, bool) {
	x, y := m.xy(r)
	switch port {
	case PortE:
		if x+1 < m.W {
			return r + 1, PortW, true
		}
	case PortW:
		if x > 0 {
			return r - 1, PortE, true
		}
	case PortN:
		if y > 0 {
			return r - m.W, PortS, true
		}
	case PortS:
		if y+1 < m.H {
			return r + m.W, PortN, true
		}
	}
	return 0, 0, false
}

// order returns the dimension order for a packet class.
func (m *Mesh) order(c Class) config.DimOrder {
	if c == ClassReply {
		return m.Policy.RepOrder
	}
	return m.Policy.ReqOrder
}

// dorPort returns the next DOR hop toward (dx, dy) under the given order.
func dorPort(x, y, dx, dy int, order config.DimOrder) int {
	xFirst := order == config.OrderXY
	if xFirst {
		if dx > x {
			return PortE
		}
		if dx < x {
			return PortW
		}
	}
	if dy > y {
		return PortS
	}
	if dy < y {
		return PortN
	}
	if dx > x {
		return PortE
	}
	if dx < x {
		return PortW
	}
	return PortLocal
}

// Route implements CDR or the adaptive policy.
func (m *Mesh) Route(net *Network, r int, p *Packet, buf []Candidate) []Candidate {
	lo, hi := net.VCRange(p.Class)
	x, y := m.xy(r)
	dr, dport := m.NodePort(p.Dst)
	dx, dy := m.xy(dr)
	if dx == x && dy == y {
		return append(buf, Candidate{Port: dport, VCLo: lo, VCHi: hi})
	}
	dor := dorPort(x, y, dx, dy, m.order(p.Class))
	if m.Policy.Alg == config.RoutingCDR || hi == lo {
		return append(buf, Candidate{Port: dor, VCLo: lo, VCHi: hi})
	}
	return adaptiveMeshRoute(x, y, dx, dy, dor, lo, hi, buf)
}

// FlattenedButterfly fully connects each row and each column [41];
// any packet needs at most one row hop and one column hop.
type FlattenedButterfly struct {
	W, H     int
	ReqOrder config.DimOrder
	RepOrder config.DimOrder
}

// NewFlattenedButterfly builds the topology with per-class dimension
// orders (the CDR analogue for this topology).
func NewFlattenedButterfly(w, h int, req, rep config.DimOrder) *FlattenedButterfly {
	return &FlattenedButterfly{W: w, H: h, ReqOrder: req, RepOrder: rep}
}

func (f *FlattenedButterfly) Name() string              { return fmt.Sprintf("fbfly%dx%d", f.W, f.H) }
func (f *FlattenedButterfly) NumRouters() int           { return f.W * f.H }
func (f *FlattenedButterfly) NumPorts(int) int          { return 1 + (f.W - 1) + (f.H - 1) }
func (f *FlattenedButterfly) NodePort(n int) (int, int) { return n, 0 }

func (f *FlattenedButterfly) xy(r int) (int, int) { return r % f.W, r / f.W }

// rowPort returns the port from column x to column tx (tx != x).
func (f *FlattenedButterfly) rowPort(x, tx int) int {
	if tx < x {
		return 1 + tx
	}
	return 1 + tx - 1
}

// colPort returns the port from row y to row ty (ty != y).
func (f *FlattenedButterfly) colPort(y, ty int) int {
	base := 1 + (f.W - 1)
	if ty < y {
		return base + ty
	}
	return base + ty - 1
}

func (f *FlattenedButterfly) Wire(r, port int) (int, int, bool) {
	x, y := f.xy(r)
	if port >= 1 && port <= f.W-1 {
		idx := port - 1
		tx := idx
		if idx >= x {
			tx = idx + 1
		}
		peer := y*f.W + tx
		return peer, f.rowPort(tx, x), true
	}
	base := 1 + (f.W - 1)
	if port >= base && port < base+f.H-1 {
		idx := port - base
		ty := idx
		if idx >= y {
			ty = idx + 1
		}
		peer := ty*f.W + x
		return peer, f.colPort(ty, y), true
	}
	return 0, 0, false
}

func (f *FlattenedButterfly) Route(net *Network, r int, p *Packet, buf []Candidate) []Candidate {
	lo, hi := net.VCRange(p.Class)
	x, y := f.xy(r)
	dr, dport := f.NodePort(p.Dst)
	dx, dy := f.xy(dr)
	if dx == x && dy == y {
		return append(buf, Candidate{Port: dport, VCLo: lo, VCHi: hi})
	}
	order := f.ReqOrder
	if p.Class == ClassReply {
		order = f.RepOrder
	}
	var port int
	if order == config.OrderXY {
		if dx != x {
			port = f.rowPort(x, dx)
		} else {
			port = f.colPort(y, dy)
		}
	} else {
		if dy != y {
			port = f.colPort(y, dy)
		} else {
			port = f.rowPort(x, dx)
		}
	}
	return append(buf, Candidate{Port: port, VCLo: lo, VCHi: hi})
}

// Dragonfly groups routers into fully connected local groups with one
// global link per router [42]. Minimal routing is local-global-local;
// the second half of the class VC range is used after the global hop to
// break cyclic dependencies.
type Dragonfly struct {
	GroupSize int
	Groups    int
}

// NewDragonfly builds a dragonfly over n routers with the given group
// size; n must be divisible by groupSize, and the group count must not
// exceed groupSize (so every group pair has a global link).
func NewDragonfly(n, groupSize int) *Dragonfly {
	if n%groupSize != 0 {
		panic(fmt.Sprintf("dragonfly: %d routers not divisible by group size %d", n, groupSize))
	}
	g := n / groupSize
	if g > groupSize {
		panic(fmt.Sprintf("dragonfly: %d groups exceed group size %d", g, groupSize))
	}
	return &Dragonfly{GroupSize: groupSize, Groups: g}
}

func (d *Dragonfly) Name() string              { return fmt.Sprintf("dragonfly%dx%d", d.Groups, d.GroupSize) }
func (d *Dragonfly) NumRouters() int           { return d.Groups * d.GroupSize }
func (d *Dragonfly) NumPorts(int) int          { return 1 + (d.GroupSize - 1) + 1 }
func (d *Dragonfly) NodePort(n int) (int, int) { return n, 0 }

func (d *Dragonfly) split(r int) (group, idx int) { return r / d.GroupSize, r % d.GroupSize }

// intraPort returns the port from member idx to member t of the same group.
func (d *Dragonfly) intraPort(idx, t int) int {
	if t < idx {
		return 1 + t
	}
	return 1 + t - 1
}

// globalTarget returns the group router (g, i)'s global link reaches,
// or -1 when the link is unused (it would point at its own group).
func (d *Dragonfly) globalTarget(g, i int) int {
	t := (g + i + 1) % d.Groups
	if t == g {
		return -1
	}
	return t
}

func (d *Dragonfly) globalPort() int { return 1 + (d.GroupSize - 1) }

func (d *Dragonfly) Wire(r, port int) (int, int, bool) {
	g, i := d.split(r)
	if port >= 1 && port < 1+d.GroupSize-1 {
		idx := port - 1
		t := idx
		if idx >= i {
			t = idx + 1
		}
		if t >= d.GroupSize {
			return 0, 0, false
		}
		return g*d.GroupSize + t, d.intraPort(t, i), true
	}
	if port == d.globalPort() {
		tg := d.globalTarget(g, i)
		if tg < 0 {
			return 0, 0, false
		}
		// Peer is the member of tg whose global link points back at g.
		j := ((g-tg-1)%d.Groups + d.Groups) % d.Groups
		return tg*d.GroupSize + j, d.globalPort(), true
	}
	return 0, 0, false
}

func (d *Dragonfly) Route(net *Network, r int, p *Packet, buf []Candidate) []Candidate {
	lo, hi := net.VCRange(p.Class)
	dr, dport := d.NodePort(p.Dst)
	g, i := d.split(r)
	dg, di := d.split(dr)
	// Phase-split VCs: before reaching the destination group use the low
	// half, after the global hop use the high half.
	n := hi - lo + 1
	phaseLo, phaseHi := lo, hi
	if n >= 2 {
		if g == dg {
			phaseLo = lo + n/2
		} else {
			phaseHi = lo + n/2 - 1
		}
	}
	if g == dg {
		if r == dr {
			return append(buf, Candidate{Port: dport, VCLo: phaseLo, VCHi: phaseHi})
		}
		return append(buf, Candidate{Port: d.intraPort(i, di), VCLo: phaseLo, VCHi: phaseHi})
	}
	need := ((dg-g-1)%d.Groups + d.Groups) % d.Groups
	if need == i {
		return append(buf, Candidate{Port: d.globalPort(), VCLo: phaseLo, VCHi: phaseHi})
	}
	return append(buf, Candidate{Port: d.intraPort(i, need), VCLo: phaseLo, VCHi: phaseHi})
}

// Crossbar is a single-stage crossbar connecting every node directly:
// one router whose port i attaches node i. It inherently provides
// core-to-core links; serialization occurs at the output ports.
type Crossbar struct {
	N int
}

// NewCrossbar builds a crossbar over n nodes.
func NewCrossbar(n int) *Crossbar { return &Crossbar{N: n} }

func (c *Crossbar) Name() string                   { return fmt.Sprintf("crossbar%d", c.N) }
func (c *Crossbar) NumRouters() int                { return 1 }
func (c *Crossbar) NumPorts(int) int               { return c.N }
func (c *Crossbar) NodePort(n int) (int, int)      { return 0, n }
func (c *Crossbar) Wire(int, int) (int, int, bool) { return 0, 0, false }

func (c *Crossbar) Route(net *Network, r int, p *Packet, buf []Candidate) []Candidate {
	lo, hi := net.VCRange(p.Class)
	_, dport := c.NodePort(p.Dst)
	return append(buf, Candidate{Port: dport, VCLo: lo, VCHi: hi})
}
