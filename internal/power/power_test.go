package power

import (
	"math"
	"testing"

	"delrep/internal/config"
)

func TestMeshAreaCalibration(t *testing.T) {
	// Section III: baseline mesh 2.27 mm^2; double bandwidth 5.76 mm^2
	// (2.5x). The analytic model must land within a few percent.
	noc := config.Default().NoC
	base := MeshNoCArea(8, 8, noc)
	if math.Abs(base-2.27) > 0.15 {
		t.Fatalf("baseline mesh area %.3f, paper 2.27", base)
	}
	dbl := noc
	dbl.ChannelBytes *= 2
	d := MeshNoCArea(8, 8, dbl)
	if math.Abs(d-5.76) > 0.4 {
		t.Fatalf("double-bandwidth mesh area %.3f, paper 5.76", d)
	}
	ratio := d / base
	if ratio < 2.3 || ratio > 2.7 {
		t.Fatalf("area ratio %.2f, paper 2.5", ratio)
	}
}

func TestMechanismAreaCalibration(t *testing.T) {
	frq := FRQArea(40, 8)
	if math.Abs(frq-0.092) > 1e-9 {
		t.Fatalf("FRQ area %.4f, paper 0.092", frq)
	}
	ptr := PointerArea(8<<20, 128, 6)
	if math.Abs(ptr-0.08) > 1e-9 {
		t.Fatalf("pointer area %.4f, paper 0.08", ptr)
	}
	total := frq + ptr
	if math.Abs(total-0.172) > 1e-9 {
		t.Fatalf("total overhead %.4f, paper 0.172", total)
	}
	// The paper's headline: DR costs ~5% of the NoC-doubling area.
	noc := config.Default().NoC
	dbl := noc
	dbl.ChannelBytes *= 2
	extra := MeshNoCArea(8, 8, dbl) - MeshNoCArea(8, 8, noc)
	if frac := total / extra; frac < 0.03 || frac > 0.08 {
		t.Fatalf("DR/extra-NoC fraction %.3f, paper ~0.05", frac)
	}
}

func TestRouterAreaMonotonicity(t *testing.T) {
	base := RouterConfig{Ports: 5, ChannelBits: 128, VCs: 2, FlitsPerVC: 4}
	a := RouterArea(base)
	wider := base
	wider.ChannelBits *= 2
	if RouterArea(wider) <= a {
		t.Fatal("area must grow with channel width")
	}
	morePorts := base
	morePorts.Ports = 15
	if RouterArea(morePorts) <= a {
		t.Fatal("area must grow with port count")
	}
	// Crossbar quadratic: doubling width should more than double the
	// crossbar-only component; overall area should grow superlinearly
	// relative to the buffer-only linear term.
	quad := RouterArea(RouterConfig{Ports: 5, ChannelBits: 256, VCs: 2, FlitsPerVC: 4})
	if quad >= 4*a {
		t.Fatal("growth faster than pure quadratic is wrong")
	}
	if quad <= 2*a*0.9 {
		t.Fatal("growth should exceed linear")
	}
}

func TestSharedPhysArea(t *testing.T) {
	// A single shared physical network with the same aggregate VCs and
	// doubled channel width should cost more than the split baseline
	// (crossbar quadratic in width) but less than two doubled networks.
	noc := config.Default().NoC
	shared := noc
	shared.SharedPhys = true
	shared.ChannelBytes *= 2
	shared.ReqVCs, shared.RepVCs = 2, 2
	base := MeshNoCArea(8, 8, noc)
	sh := MeshNoCArea(8, 8, shared)
	if sh <= base {
		t.Fatalf("shared 2x-wide network %.2f not above split baseline %.2f", sh, base)
	}
	dbl := noc
	dbl.ChannelBytes *= 2
	if sh >= MeshNoCArea(8, 8, dbl) {
		t.Fatal("one shared network should cost less than two doubled networks")
	}
}

func TestEnergyModel(t *testing.T) {
	a := Activity{FlitHops: 1e6, BufferWrites: 1e6, ChannelBits: 128}
	dyn := DynamicEnergyPJ(a)
	if dyn <= 0 {
		t.Fatal("dynamic energy must be positive")
	}
	// Energy scales linearly with activity.
	b := a
	b.FlitHops *= 2
	b.BufferWrites *= 2
	if math.Abs(DynamicEnergyPJ(b)-2*dyn) > 1e-6 {
		t.Fatal("dynamic energy not linear in activity")
	}
}

func TestLinkArea(t *testing.T) {
	if LinkArea(128, LinkLengthMM) <= LinkArea(64, LinkLengthMM) {
		t.Fatal("link area must grow with width")
	}
}
