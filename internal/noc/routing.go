package noc

import "slices"

// adaptiveMeshRoute produces the candidates of minimal adaptive routing,
// deadlock-free by Duato's principle: VC lo of the class range is a DOR
// escape channel, the other VCs may take any productive port. The
// candidates are unranked: the routing table folds them into an unordered
// mask of output VCs and allocateVCs grants in (port, VC) order, so no
// port ranking (DyXY's, Footprint's or HARE's) could reach a grant.
func adaptiveMeshRoute(x, y, dx, dy, dor, lo, hi int, buf []Candidate) []Candidate {
	if dx > x {
		buf = append(buf, Candidate{Port: PortE, VCLo: lo + 1, VCHi: hi})
	} else if dx < x {
		buf = append(buf, Candidate{Port: PortW, VCLo: lo + 1, VCHi: hi})
	}
	if dy > y {
		buf = append(buf, Candidate{Port: PortS, VCLo: lo + 1, VCHi: hi})
	} else if dy < y {
		buf = append(buf, Candidate{Port: PortN, VCLo: lo + 1, VCHi: hi})
	}
	// Escape channel: DOR on the lowest VC keeps the network deadlock-free.
	return append(buf, Candidate{Port: dor, VCLo: lo, VCHi: lo})
}

// buildRoutes tabulates Topology.Route per (destination, class), each distinct mask once.
func (r *Router) buildRoutes(nodes int) {
	w, p, cands := len(r.occ), &Packet{}, make([]Candidate, 0, 4) // scratch: Route's arguments escape
	mask := make([]uint64, w)
	r.routeOf = make([]uint16, 2*nodes)
	for k := range r.routeOf {
		p.Dst, p.Class = k/2, Class(k%2)
		clear(mask)
		for _, c := range r.net.topo.Route(r.net, r.ID, p, cands) {
			for o := c.Port*r.numVCs + c.VCLo; o <= c.Port*r.numVCs+c.VCHi; o++ {
				mask[o>>6] |= bit(o)
			}
		}
		row := 0
		for row < len(r.routes) && !slices.Equal(r.routes[row:row+w], mask) {
			row += w
		}
		if row == len(r.routes) {
			r.routes = append(r.routes, mask...)
		}
		r.routeOf[k] = uint16(row / w)
	}
}
