package noc

import "delrep/internal/config"

// adaptiveMeshRoute produces routing candidates for the adaptive mesh
// policies. All three policies are minimal and deadlock-free by Duato's
// principle: VC lo of the class range is an escape channel restricted to
// DOR, while the remaining VCs may be used on any productive port. The
// policies differ only in how they rank the productive ports:
//
//   - DyXY [45] ranks by instantaneous downstream free credits
//     (proximity congestion).
//   - Footprint [22] regulates adaptiveness: it sticks to the port last
//     used for this destination and only deviates when the congestion
//     differential exceeds a threshold, bounding path spread.
//   - HARE [37] ranks by a history-weighted (EWMA) credit estimate,
//     reacting to sustained endpoint congestion rather than transients.
func adaptiveMeshRoute(net *Network, m *Mesh, r int, p *Packet, x, y, dx, dy, dor, lo, hi int, buf []Candidate) []Candidate {
	rtr := net.Routers[r]
	var prods [2]int
	np := 0
	if dx > x {
		prods[np] = PortE
		np++
	} else if dx < x {
		prods[np] = PortW
		np++
	}
	if dy > y {
		prods[np] = PortS
		np++
	} else if dy < y {
		prods[np] = PortN
		np++
	}
	if np == 2 {
		first := rankPorts(net, rtr, p, prods[0], prods[1])
		if !first {
			prods[0], prods[1] = prods[1], prods[0]
		}
	}
	for _, port := range prods[:np] {
		buf = append(buf, Candidate{Port: port, VCLo: lo + 1, VCHi: hi})
	}
	// Escape channel: DOR on the lowest VC keeps the network deadlock-free.
	return append(buf, Candidate{Port: dor, VCLo: lo, VCHi: lo})
}

// rankPorts reports whether port a should be preferred over port b for
// packet p under the router's adaptive policy.
func rankPorts(net *Network, rtr *Router, p *Packet, a, b int) bool {
	switch net.cfg.Routing {
	case config.RoutingFootprint:
		dr, _ := net.topo.NodePort(p.Dst)
		if rtr.foot == nil {
			rtr.foot = make(map[int]int)
		}
		sticky, ok := rtr.foot[dr]
		ca, cb := rtr.freeCredits(a), rtr.freeCredits(b)
		var choice int
		switch {
		case ok && sticky == a && cb <= ca+footprintSlack:
			choice = a
		case ok && sticky == b && ca <= cb+footprintSlack:
			choice = b
		case ca >= cb:
			choice = a
		default:
			choice = b
		}
		rtr.foot[dr] = choice
		return choice == a
	case config.RoutingHARE:
		return rtr.ewma[a] >= rtr.ewma[b]
	default: // DyXY
		return rtr.freeCredits(a) >= rtr.freeCredits(b)
	}
}

// footprintSlack is the congestion differential (in credits) required
// before Footprint abandons its established path.
const footprintSlack = 2

// ewmaAlpha weights HARE's history-aware congestion estimate.
const ewmaAlpha = 0.05

// updateEWMA folds the current free-credit observation of every output
// port into the router's history estimate (called once per cycle when
// HARE routing is active).
func (r *Router) updateEWMA() {
	for port := range r.ports {
		if p := &r.ports[port]; p.to < 0 && p.eject == nil {
			continue // leads nowhere
		}
		r.ewma[port] = (1-ewmaAlpha)*r.ewma[port] + ewmaAlpha*float64(r.freeCredits(port))
	}
}

// freeCredits sums the available downstream credits across the VCs of an
// output port: the congestion signal the adaptive policies consume.
func (r *Router) freeCredits(port int) int {
	s := 0
	for _, v := range r.vc[port*r.numVCs : (port+1)*r.numVCs] {
		s += int(v.credits)
	}
	return s
}
