package experiment

import (
	"fmt"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/runner"
	"delrep/internal/stats"
)

// mutation edits a configuration that starts as the Table I baseline.
type mutation func(*config.Config)

// row is one line of a gain table: its label cells, the variant, and
// the reference it is normalized to.
type row struct {
	cells   []any
	variant mutation
	ref     mutation
}

// vsBaseline is a row comparing a mutated machine with the Table I
// baseline.
func vsBaseline(variant mutation, cells ...any) row { return row{cells, variant, unchanged} }

// drVsBaseline is a row measuring what Delegated Replies gains on a
// mutated machine: DR and the baseline scheme under the same mutation.
func drVsBaseline(m mutation, cells ...any) row {
	return row{cells, func(c *config.Config) { c.Scheme = config.SchemeDelegatedReplies; m(c) }, m}
}

// unchanged leaves the machine as Table I has it.
func unchanged(*config.Config) {}

// pair is one benchmark's (variant, reference) results.
type pair struct{ v, ref core.Results }

// gainTable is the computation ten of the figures share, written as
// rows of data: each row's variant and reference run on every subset
// benchmark, and reduce turns the row's result pairs into the cells
// after the labels (mostly the harmonic mean of a ratio). With toFirst
// the rows carry no references: each is normalized to the first row.
type gainTable struct {
	title   string
	headers []string
	rows    []row
	toFirst bool
	reduce  func([]pair) []any
	notes   []string
}

func (g gainTable) build(p *Plan) func() Report {
	declare := func(m mutation, bench string) *runner.Future {
		cfg := config.Default()
		m(&cfg)
		return p.Defer(cfg, bench, PrimaryCPU(bench))
	}
	futs := make([][][2]*runner.Future, len(g.rows))
	for i, r := range g.rows {
		for j, b := range p.SubsetBenches() {
			f := [2]*runner.Future{declare(r.variant, b)}
			switch {
			case !g.toFirst:
				f[1] = declare(r.ref, b)
			case i == 0:
				f[1] = f[0]
			default:
				f[1] = futs[0][j][0]
			}
			futs[i] = append(futs[i], f)
		}
	}
	return func() Report {
		t := stats.NewTable(g.title, g.headers...)
		for i, r := range g.rows {
			ps := make([]pair, len(futs[i]))
			for j, f := range futs[i] {
				ps[j] = pair{f[0].Results(), f[1].Results()}
			}
			t.AddRow(append(append([]any{}, r.cells...), g.reduce(ps)...)...)
		}
		return Report{[]*stats.Table{t}, g.notes}
	}
}

func gpuIPC(r core.Results) float64  { return r.GPUIPC }
func cpuTput(r core.Results) float64 { return r.CPUThroughput }

// ratios returns variant/reference of a metric per pair, skipping
// pairs whose reference is zero.
func ratios(ps []pair, metric func(core.Results) float64) []float64 {
	var out []float64
	for _, p := range ps {
		if d := metric(p.ref); d > 0 {
			out = append(out, metric(p.v)/d)
		}
	}
	return out
}

// rel is the harmonic-mean relative performance on a metric.
func rel(ps []pair, metric func(core.Results) float64) float64 {
	return stats.HarmonicMean(ratios(ps, metric))
}

// relGPU reduces to the relative GPU performance.
func relGPU(ps []pair) []any { return []any{rel(ps, gpuIPC)} }

// gpuGainPct reduces to the GPU gain in percent.
func gpuGainPct(ps []pair) []any { return []any{100 * (rel(ps, gpuIPC) - 1)} }

// fig5 compares topologies at nominal and doubled bandwidth, plus the
// memory-node blocking rates (Figure 5b).
func fig5() gainTable {
	g := gainTable{
		title:   "Figure 5a: GPU performance vs mesh baseline (HM across benchmarks)",
		headers: []string{"Config", "Rel. GPU perf", "Blocking % (5b)"},
		reduce: func(ps []pair) []any {
			var blocked stats.Sampler
			for _, p := range ps {
				blocked.Add(p.v.MemBlockedRate)
			}
			return append(relGPU(ps), 100*blocked.Mean())
		},
		notes: []string{"paper: changing topology hardly helps (blocking stays 72-79%); doubling bandwidth helps but costs 2.5x area"},
	}
	for _, mult := range []int{1, 2} {
		for _, t := range []struct {
			name string
			topo config.Topology
		}{
			{"mesh", config.TopoMesh}, {"crossbar", config.TopoCrossbar},
			{"fbfly", config.TopoFlattenedButterfly}, {"dragonfly", config.TopoDragonfly},
		} {
			g.rows = append(g.rows, vsBaseline(func(c *config.Config) {
				c.NoC.Topology = t.topo
				c.NoC.ChannelBytes *= mult
			}, fmt.Sprintf("%s-%dx", t.name, mult)))
		}
	}
	return g
}

// sharedPhys puts both classes on one physical network of the same
// aggregate bandwidth, with the given VCs per class.
func sharedPhys(req, rep int) mutation {
	return func(c *config.Config) {
		c.NoC.SharedPhys = true
		c.NoC.ChannelBytes *= 2
		c.NoC.ReqVCs, c.NoC.RepVCs = req, rep
	}
}

// fig6 evaluates asymmetric VC partitioning on a shared physical
// network at equal aggregate bandwidth, per benchmark.
func fig6(p *Plan) func() Report {
	g := gainTable{
		title:   "Figure 6: AVCP vs baseline (per benchmark, relative GPU perf)",
		headers: append(append([]string{"Config"}, p.SubsetBenches()...), "HM"),
		reduce: func(ps []pair) []any {
			var cells []any
			for _, r := range ratios(ps, gpuIPC) {
				cells = append(cells, r)
			}
			return append(cells, relGPU(ps)...)
		},
		notes: []string{"paper: AVCP is ineffective (<=3% best case, HM unchanged; BP hurt by request-network pressure)"},
	}
	for _, sp := range [][2]int{{1, 3}, {2, 2}, {3, 1}} {
		g.rows = append(g.rows, vsBaseline(sharedPhys(sp[0], sp[1]), fmt.Sprintf("AVCP-%d:%d", sp[0], sp[1])))
	}
	return g.build(p)
}

// fig7 evaluates the adaptive routing schemes against CDR.
func fig7() gainTable {
	g := gainTable{
		title:   "Figure 7: adaptive routing vs CDR baseline (relative GPU perf)",
		headers: []string{"Routing", "Rel. GPU perf (HM)"},
		reduce:  relGPU,
		notes:   []string{"paper: adaptive routing reduces performance; the limitation is link bandwidth, not path choice"},
	}
	for _, alg := range []config.RoutingAlg{config.RoutingDyXY, config.RoutingFootprint, config.RoutingHARE} {
		g.rows = append(g.rows, vsBaseline(func(c *config.Config) { c.NoC.Routing = alg }, alg.String()))
	}
	return g
}

// onLayout places the machine on a chip layout under the given CDR
// dimension orders.
func onLayout(l config.Layout, req, rep config.DimOrder) mutation {
	return func(c *config.Config) {
		c.Layout = l
		c.NoC.ReqOrder, c.NoC.RepOrder = req, rep
	}
}

// fig9 studies layouts and CDR dimension orders, normalized to the
// Baseline layout under YX-XY.
func fig9() gainTable {
	g := gainTable{
		title:   "Figure 9: layouts and routing (normalized to Baseline YX-XY)",
		headers: []string{"Layout", "Routing", "GPU perf", "CPU perf"},
		toFirst: true,
		reduce:  func(ps []pair) []any { return []any{rel(ps, gpuIPC), rel(ps, cpuTput)} },
		notes:   []string{"paper: only the Baseline layout provides both high CPU and GPU performance"},
	}
	for _, v := range []struct {
		layout   config.Layout
		req, rep config.DimOrder
	}{
		{config.BaselineLayout(), config.OrderYX, config.OrderXY},
		{config.BaselineLayout(), config.OrderXY, config.OrderXY},
		{config.LayoutB(), config.OrderXY, config.OrderYX},
		{config.LayoutB(), config.OrderXY, config.OrderXY},
		{config.LayoutC(), config.OrderXY, config.OrderYX},
		{config.LayoutC(), config.OrderXY, config.OrderXY},
		{config.LayoutD(), config.OrderXY, config.OrderXY},
	} {
		g.rows = append(g.rows, vsBaseline(onLayout(v.layout, v.req, v.rep),
			v.layout.Name, v.req.String()+"-"+v.rep.String()))
	}
	return g
}

// fig15 layers Delegated Replies on the shared-L1 organisations and
// CTA scheduling policies.
func fig15() gainTable {
	sharedL1 := func(org config.L1Org, sched config.CTASched, scheme config.Scheme) mutation {
		return func(c *config.Config) { c.GPU.Org, c.GPU.CTASched, c.Scheme = org, sched, scheme }
	}
	return gainTable{
		title:   "Figure 15: shared L1 organisations, CTA scheduling, and DR (vs private-L1 baseline, HM)",
		headers: []string{"Config", "Rel. GPU perf"},
		rows: []row{
			vsBaseline(sharedL1(config.L1DCL1, config.CTARoundRobin, config.SchemeBaseline), "DC-L1 rr"),
			vsBaseline(sharedL1(config.L1DCL1, config.CTADistributed, config.SchemeBaseline), "DC-L1 dist"),
			vsBaseline(sharedL1(config.L1DynEB, config.CTARoundRobin, config.SchemeBaseline), "DynEB rr"),
			vsBaseline(sharedL1(config.L1DynEB, config.CTADistributed, config.SchemeBaseline), "DynEB dist"),
			vsBaseline(sharedL1(config.L1DynEB, config.CTARoundRobin, config.SchemeDelegatedReplies), "DynEB rr + DR"),
			vsBaseline(sharedL1(config.L1DynEB, config.CTADistributed, config.SchemeDelegatedReplies), "DynEB dist + DR"),
		},
		reduce: relGPU,
		notes:  []string{"paper: locality optimizations do not remove clogging; DR adds +23.5% on DynEB-rr, +9.9% on DynEB-dist"},
	}
}

// fig16 runs DR across topologies, normalized per topology.
func fig16() gainTable {
	g := gainTable{
		title:   "Figure 16: Delegated Replies across topologies (normalized per topology, HM)",
		headers: []string{"Topology", "DR gain %"},
		reduce:  gpuGainPct,
		notes:   []string{"paper: +25.8% mesh, +21.9% fbfly, +23.9% dragonfly, +28.3% crossbar"},
	}
	for _, topo := range []config.Topology{config.TopoMesh, config.TopoFlattenedButterfly,
		config.TopoDragonfly, config.TopoCrossbar} {
		g.rows = append(g.rows, drVsBaseline(func(c *config.Config) { c.NoC.Topology = topo }, topo.String()))
	}
	return g
}

// acrossLayouts runs DR across layouts: one table of GPU and CPU gains,
// printed as Figure 17 and as Figure 18 under the paper's two notes.
func acrossLayouts(note string) gainTable {
	g := gainTable{
		title:   "Figures 17/18: Delegated Replies across chip layouts (normalized per layout, HM)",
		headers: []string{"Layout", "GPU gain %", "CPU gain %"},
		reduce:  func(ps []pair) []any { return append(gpuGainPct(ps), 100*(rel(ps, cpuTput)-1)) },
		notes:   []string{note},
	}
	for _, l := range config.AllLayouts() {
		g.rows = append(g.rows, drVsBaseline(onLayout(l, l.ReqOrder, l.RepOrder), l.Name))
	}
	return g
}

// fig19 runs the sensitivity analyses.
func fig19() gainTable {
	g := gainTable{
		title:   "Figure 19: Delegated Replies sensitivity (HM GPU gain %)",
		headers: []string{"Knob", "Setting", "DR gain %"},
		reduce:  gpuGainPct,
		notes: []string{
			"paper: gains grow with L1 size (22.9->30.2%), insensitive to LLC size (25-26%) and injection buffers,",
			"       shrink with NoC bandwidth (still +13.9% at 537 GB/s), hold across VCs (23.4-26.9%) and mesh sizes"},
	}
	add := func(m mutation, knob, setting string, v ...any) {
		g.rows = append(g.rows, drVsBaseline(m, knob, fmt.Sprintf(setting, v...)))
	}
	for _, kb := range []int{16, 32, 48, 64} {
		add(func(c *config.Config) { c.GPU.L1Bytes = kb * 1024 }, "L1 size", "%d KB", kb)
	}
	for _, mb := range []int{4, 8, 16} {
		add(func(c *config.Config) { c.LLC.SliceBytes = mb << 20 / 8 }, "LLC size", "%d MB total", mb)
	}
	for _, ch := range []int{8, 16, 24} {
		add(func(c *config.Config) { c.NoC.ChannelBytes = ch }, "NoC bandwidth", "%d B channels", ch)
	}
	for _, vc := range []int{1, 2} {
		add(sharedPhys(vc, vc), "virtual networks", "shared phys, %d VC/class", vc)
	}
	for _, n := range []int{8, 10, 12} {
		add(func(c *config.Config) {
			if n != 8 {
				c.Layout = config.ScaledBaseline(n, n)
			}
		}, "node count", "%dx%d mesh", n, n)
	}
	for _, ib := range []int{4, 8, 16, 32} {
		add(func(c *config.Config) { c.NoC.InjectionBuf = ib }, "injection buffer", "%d packets", ib)
	}
	return g
}

// nodeMix varies the CPU/GPU/memory node ratios (Section VII).
func nodeMix() gainTable {
	g := gainTable{
		title:   "Node mix: Delegated Replies GPU gain across 64-node mixes (HM %)",
		headers: []string{"CPUs", "GPUs", "MemNodes", "DR gain %"},
		reduce:  gpuGainPct,
		notes:   []string{"paper: +30.5/25.8/22.6% with 8/16/24 CPUs; +38.2/30.5/10.7% with 4/8/16 memory nodes"},
	}
	for _, m := range []struct{ cpu, mem int }{{8, 8}, {16, 8}, {24, 8}, {8, 4}, {8, 16}} {
		g.rows = append(g.rows, drVsBaseline(func(c *config.Config) {
			c.Layout = config.LayoutFromCounts(fmt.Sprintf("mix%dc%dm", m.cpu, m.mem), 8, 8, m.cpu, m.mem)
		}, m.cpu, 64-m.cpu-m.mem, m.mem))
	}
	return g
}

// ablation explores the Delegated Replies design space around the
// paper's choices (DESIGN.md's ablation list):
//
//   - delegation trigger: only-when-blocked (paper) vs always
//   - delegation bandwidth per memory node per cycle
//   - FRQ size, including the 8-entry paper value
//   - FRQ same-line merging (the multicast extension the paper skips)
func ablation() gainTable {
	g := gainTable{
		title:   "Delegated Replies ablations (HM GPU gain % over baseline)",
		headers: []string{"Knob", "Setting", "DR gain %"},
		rows: []row{
			drVsBaseline(unchanged, "trigger", "blocked-only (paper)"),
			drVsBaseline(func(c *config.Config) { c.DelRep.AlwaysDelegate = true }, "trigger", "always-delegate"),
		},
		reduce: gpuGainPct,
		notes: []string{
			"paper: delegates only when the reply network blocks (avoids needless latency);",
			"       FRQ = 8 entries; merging skipped because only 4.8% of entries share a line"},
	}
	for _, n := range []int{1, 2, 4} {
		g.rows = append(g.rows, drVsBaseline(func(c *config.Config) { c.DelRep.MaxDelegationsPerCycle = n },
			"delegations/cycle", fmt.Sprint(n)))
	}
	for _, e := range []int{2, 8, 32} {
		g.rows = append(g.rows, drVsBaseline(func(c *config.Config) { c.GPU.FRQEntries = e }, "FRQ entries", fmt.Sprint(e)))
	}
	g.rows = append(g.rows,
		drVsBaseline(unchanged, "FRQ merging", "off (paper)"),
		drVsBaseline(func(c *config.Config) { c.DelRep.FRQMerge = true }, "FRQ merging", "on (idealized multicast)"))
	return g
}
