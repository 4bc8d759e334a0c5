package config

import (
	"fmt"
	"strings"
)

// Layout describes the placement of CPU cores, GPU cores, and memory
// nodes on the chip grid, plus the CDR dimension orders the paper pairs
// with each layout (Section V, Figure 1).
type Layout struct {
	Name     string
	Width    int
	Height   int
	Kinds    []NodeKind // row-major: id = y*Width + x
	ReqOrder DimOrder   // CDR dimension order for requests
	RepOrder DimOrder   // CDR dimension order for replies
}

// Nodes returns the total node count.
func (l Layout) Nodes() int { return l.Width * l.Height }

// Kind returns the node kind at the given node id.
func (l Layout) Kind(id int) NodeKind { return l.Kinds[id] }

// XY returns the grid coordinates of a node id.
func (l Layout) XY(id int) (x, y int) { return id % l.Width, id / l.Width }

// ID returns the node id at grid coordinates (x, y).
func (l Layout) ID(x, y int) int { return y*l.Width + x }

// NodesOf returns the node ids of the given kind, in increasing order.
func (l Layout) NodesOf(k NodeKind) []int {
	var ids []int
	for id, kind := range l.Kinds {
		if kind == k {
			ids = append(ids, id)
		}
	}
	return ids
}

// Counts returns the number of GPU, CPU, and memory nodes.
func (l Layout) Counts() (gpu, cpu, mem int) {
	for _, k := range l.Kinds {
		switch k {
		case KindGPU:
			gpu++
		case KindCPU:
			cpu++
		case KindMem:
			mem++
		}
	}
	return
}

// Validate checks grid consistency.
func (l Layout) Validate() error {
	if l.Width <= 0 || l.Height <= 0 {
		return fmt.Errorf("layout %q: non-positive dimensions %dx%d", l.Name, l.Width, l.Height)
	}
	if len(l.Kinds) != l.Width*l.Height {
		return fmt.Errorf("layout %q: %d kinds for %dx%d grid", l.Name, len(l.Kinds), l.Width, l.Height)
	}
	_, _, mem := l.Counts()
	if mem == 0 {
		return fmt.Errorf("layout %q: no memory nodes", l.Name)
	}
	return nil
}

// parseGrid converts rows of 'C'/'G'/'M' runes into a kind slice.
func parseGrid(rows []string) []NodeKind {
	var kinds []NodeKind
	for _, row := range rows {
		for _, r := range row {
			switch r {
			case 'C':
				kinds = append(kinds, KindCPU)
			case 'G':
				kinds = append(kinds, KindGPU)
			case 'M':
				kinds = append(kinds, KindMem)
			default:
				panic(fmt.Sprintf("layout: bad cell %q in row %q", r, row))
			}
		}
	}
	return kinds
}

// BaselineLayout is Figure 1a: CPU columns on the west edge, a full
// memory-node column between the CPUs and GPUs, GPU columns on the east.
// CDR uses YX order for requests and XY order for replies, isolating CPU
// and GPU traffic everywhere except the memory-node routers.
func BaselineLayout() Layout {
	rows := make([]string, 8)
	for i := range rows {
		rows[i] = "CCMGGGGG"
	}
	return Layout{
		Name: "Baseline", Width: 8, Height: 8,
		Kinds:    parseGrid(rows),
		ReqOrder: OrderYX, RepOrder: OrderXY,
	}
}

// LayoutB is Figure 1b: memory nodes on the top (die-edge) row, inspired
// by commercial APU die photos; XY requests, YX replies to avoid
// congestion in the memory row.
func LayoutB() Layout {
	rows := []string{
		"MMMMMMMM",
		"CCCGGGGG",
		"CCCGGGGG",
		"CCGGGGGG",
		"CCGGGGGG",
		"CCGGGGGG",
		"CCGGGGGG",
		"CCGGGGGG",
	}
	return Layout{
		Name: "B", Width: 8, Height: 8,
		Kinds:    parseGrid(rows),
		ReqOrder: OrderXY, RepOrder: OrderYX,
	}
}

// LayoutC is Figure 1c: CPU cores clustered in a 4x4 block to minimize
// inter-CPU hop count, memory nodes in a 2x4 block beside them; GPU
// vertical memory traffic is multiplexed onto few links.
func LayoutC() Layout {
	rows := []string{
		"CCCCMMGG",
		"CCCCMMGG",
		"CCCCMMGG",
		"CCCCMMGG",
		"GGGGGGGG",
		"GGGGGGGG",
		"GGGGGGGG",
		"GGGGGGGG",
	}
	return Layout{
		Name: "C", Width: 8, Height: 8,
		Kinds:    parseGrid(rows),
		ReqOrder: OrderXY, RepOrder: OrderYX,
	}
}

// LayoutD is Figure 1d (prior work [38], [46], [59]): core types spread
// across the chip to distribute traffic; XY order for both classes since
// different orders cannot separate the interleaved traffic.
func LayoutD() Layout {
	rows := []string{
		"GCGCGCGC",
		"MGGGMGGG",
		"GCGCGCGC",
		"MGGGMGGG",
		"GCGCGCGC",
		"MGGGMGGG",
		"GCGCGCGC",
		"MGGGMGGG",
	}
	return Layout{
		Name: "D", Width: 8, Height: 8,
		Kinds:    parseGrid(rows),
		ReqOrder: OrderXY, RepOrder: OrderXY,
	}
}

// AllLayouts returns the four Figure 1 layouts in paper order.
func AllLayouts() []Layout {
	return []Layout{BaselineLayout(), LayoutB(), LayoutC(), LayoutD()}
}

// LayoutFromCounts builds a baseline-style layout on a WxH grid with the
// given CPU and memory node counts: CPUs fill west columns, memory nodes
// the next column(s), GPUs the rest. Used for node-count and node-mix
// sensitivity studies (Section VII).
func LayoutFromCounts(name string, w, h, cpus, mems int) Layout {
	total := w * h
	if cpus+mems > total {
		panic(fmt.Sprintf("layout %s: %d CPUs + %d mems > %d nodes", name, cpus, mems, total))
	}
	kinds := make([]NodeKind, total)
	// Fill column-major: west columns CPU, then memory, then GPU.
	idx := 0
	fill := func(n int, k NodeKind) {
		for ; n > 0; n-- {
			x := idx / h
			y := idx % h
			kinds[y*w+x] = k
			idx++
		}
	}
	fill(cpus, KindCPU)
	fill(mems, KindMem)
	fill(total-cpus-mems, KindGPU)
	return Layout{
		Name: name, Width: w, Height: h,
		Kinds:    kinds,
		ReqOrder: OrderYX, RepOrder: OrderXY,
	}
}

// ScaledBaseline builds a baseline-style layout for larger meshes
// (10x10, 12x12) keeping roughly the 8x8 proportions: a quarter of the
// nodes are CPUs (rounded to whole columns) and one column is memory.
func ScaledBaseline(w, h int) Layout {
	cpuCols := w / 4
	return LayoutFromCounts(fmt.Sprintf("Baseline%dx%d", w, h), w, h, cpuCols*h, h)
}

// String renders the layout grid using C/G/M cells.
// Every run key renders it (runner.Key), so it writes into one builder.
func (l Layout) String() string {
	var b strings.Builder
	b.Grow(len(l.Name) + len(" (XY-YX)\n") + (l.Width+1)*l.Height)
	b.WriteString(l.Name)
	b.WriteString(" (")
	b.WriteString(l.ReqOrder.String())
	b.WriteByte('-')
	b.WriteString(l.RepOrder.String())
	b.WriteString(")\n")
	for y := 0; y < l.Height; y++ {
		for x := 0; x < l.Width; x++ {
			switch l.Kinds[l.ID(x, y)] {
			case KindCPU:
				b.WriteByte('C')
			case KindGPU:
				b.WriteByte('G')
			case KindMem:
				b.WriteByte('M')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
