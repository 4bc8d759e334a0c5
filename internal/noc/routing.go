package noc

// adaptiveMeshRoute produces the candidates of minimal adaptive routing,
// deadlock-free by Duato's principle: VC lo of the class range is a DOR
// escape channel, the other VCs may take any productive port. The
// candidates are unranked: Router.route folds them into an unordered
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
