package config

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestLayoutCounts(t *testing.T) {
	for _, l := range AllLayouts() {
		gpu, cpu, mem := l.Counts()
		if gpu != 40 || cpu != 16 || mem != 8 {
			t.Errorf("layout %s: counts %d/%d/%d, want 40/16/8", l.Name, gpu, cpu, mem)
		}
		if err := l.Validate(); err != nil {
			t.Errorf("layout %s invalid: %v", l.Name, err)
		}
		if l.Nodes() != 64 {
			t.Errorf("layout %s: %d nodes", l.Name, l.Nodes())
		}
	}
}

func TestLayoutPaperRoutingOrders(t *testing.T) {
	// Section V pairs each layout with a specific CDR order.
	cases := map[string][2]DimOrder{
		"Baseline": {OrderYX, OrderXY},
		"B":        {OrderXY, OrderYX},
		"C":        {OrderXY, OrderYX},
		"D":        {OrderXY, OrderXY},
	}
	for _, l := range AllLayouts() {
		want := cases[l.Name]
		if l.ReqOrder != want[0] || l.RepOrder != want[1] {
			t.Errorf("layout %s: orders %v-%v, want %v-%v",
				l.Name, l.ReqOrder, l.RepOrder, want[0], want[1])
		}
	}
}

func TestBaselineLayoutIsolation(t *testing.T) {
	// Figure 1a: CPUs in columns 0-1, memory in column 2, GPUs east.
	l := BaselineLayout()
	for y := 0; y < l.Height; y++ {
		for x := 0; x < l.Width; x++ {
			k := l.Kind(l.ID(x, y))
			switch {
			case x < 2 && k != KindCPU:
				t.Fatalf("(%d,%d) = %v, want CPU", x, y, k)
			case x == 2 && k != KindMem:
				t.Fatalf("(%d,%d) = %v, want MEM", x, y, k)
			case x > 2 && k != KindGPU:
				t.Fatalf("(%d,%d) = %v, want GPU", x, y, k)
			}
		}
	}
}

func TestLayoutXYRoundTrip(t *testing.T) {
	l := BaselineLayout()
	for id := 0; id < l.Nodes(); id++ {
		x, y := l.XY(id)
		if l.ID(x, y) != id {
			t.Fatalf("XY/ID round trip failed for %d", id)
		}
	}
}

func TestNodesOf(t *testing.T) {
	l := BaselineLayout()
	if n := len(l.NodesOf(KindMem)); n != 8 {
		t.Fatalf("mem nodes = %d", n)
	}
	// NodesOf must return increasing ids.
	ids := l.NodesOf(KindGPU)
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("NodesOf not sorted")
		}
	}
}

func TestLayoutFromCounts(t *testing.T) {
	l := LayoutFromCounts("mix", 8, 8, 24, 8)
	gpu, cpu, mem := l.Counts()
	if cpu != 24 || mem != 8 || gpu != 32 {
		t.Fatalf("counts %d/%d/%d", gpu, cpu, mem)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScaledBaseline(t *testing.T) {
	for _, n := range []int{10, 12} {
		l := ScaledBaseline(n, n)
		gpu, cpu, mem := l.Counts()
		if gpu+cpu+mem != n*n {
			t.Fatalf("%dx%d: %d nodes", n, n, gpu+cpu+mem)
		}
		if mem != n {
			t.Fatalf("%dx%d: %d mem nodes, want %d", n, n, mem, n)
		}
		if cpu != (n/4)*n {
			t.Fatalf("%dx%d: %d cpus", n, n, cpu)
		}
	}
}

func TestFlitsForData(t *testing.T) {
	n := NoC{ChannelBytes: 16}
	cases := []struct{ data, want int }{
		{0, 1}, {8, 2}, {64, 5}, {128, 9}, {129, 10},
	}
	for _, c := range cases {
		if got := n.FlitsForData(c.data); got != c.want {
			t.Errorf("FlitsForData(%d) = %d, want %d", c.data, got, c.want)
		}
	}
	wide := NoC{ChannelBytes: 32}
	if got := wide.FlitsForData(128); got != 5 {
		t.Errorf("32B channel FlitsForData(128) = %d, want 5", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	c := Default()
	c.NoC.ChannelBytes = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero channel width accepted")
	}
	c = Default()
	c.GPU.L1Bytes = 1000 // not divisible by assoc*line
	if err := c.Validate(); err == nil {
		t.Fatal("bad L1 geometry accepted")
	}
	c = Default()
	c.MeasureCycles = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero measure window accepted")
	}
	c = Default()
	c.NoC.SharedPhys = true
	if err := c.Validate(); err == nil {
		t.Fatal("shared phys without VC split accepted")
	}
	c = Default()
	c.NoC.FlitsPerVC = 257
	if err := c.Validate(); err == nil {
		t.Fatal("VC depth above the cap accepted")
	}
	c.NoC.FlitsPerVC = 256
	if err := c.Validate(); err != nil {
		t.Fatalf("VC depth at the cap rejected: %v", err)
	}
	c = Default()
	c.WarmupCycles = -5
	if err := c.Validate(); err == nil {
		t.Fatal("negative warm-up accepted")
	}
	c = Default()
	c.WarmupCycles = math.MaxInt64 - c.MeasureCycles + 1
	if err := c.Validate(); err == nil {
		t.Fatal("overflowing warm-up + measure accepted")
	}
}

func TestStringers(t *testing.T) {
	if SchemeDelegatedReplies.String() != "DelegatedReplies" {
		t.Fatal(SchemeDelegatedReplies.String())
	}
	if TopoFlattenedButterfly.String() != "FlattenedButterfly" {
		t.Fatal(TopoFlattenedButterfly.String())
	}
	if RoutingAdaptive.String() != "Adaptive" {
		t.Fatal(RoutingAdaptive.String())
	}
	if OrderYX.String() != "YX" || OrderXY.String() != "XY" {
		t.Fatal("dim order strings")
	}
	s := BaselineLayout().String()
	if !strings.Contains(s, "CCMGGGGG") {
		t.Fatalf("layout string:\n%s", s)
	}
}
