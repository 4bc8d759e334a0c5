package experiment

import (
	"fmt"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/power"
	"delrep/internal/runner"
	"delrep/internal/stats"
	"delrep/internal/workload"
)

// Figures returns every table and figure of the evaluation, in paper
// order. Adding one is adding an entry here (EXPERIMENTS.md, "Adding a
// figure").
func Figures() []Figure {
	return []Figure{
		{"tableI", "simulated CPU-GPU architecture parameters", tableI},
		{"tableII", "heterogeneous CPU-GPU workload pairings", tableII},
		{"fig2", "inter-core locality of GPU benchmarks", fig2},
		{"fig5", "NoC topology and bandwidth study (+ blocking rates)", fig5().build},
		{"fig6", "asymmetric VC partitioning (AVCP)", fig6},
		{"fig7", "adaptive routing schemes", fig7().build},
		{"fig9", "chip layout and routing policy study", fig9().build},
		{"fig10", "GPU performance: Delegated Replies vs RP vs baseline", fig10},
		{"fig11", "received data rate per GPU core", fig11},
		{"fig12", "CPU network latency", cpuFigure{
			title:   "Figure 12: CPU network latency, normalized to baseline (lower is better)",
			headers: []string{"CPU bench", "RP", "DR"},
			metric:  func(r core.Results) float64 { return r.CPULatAvg },
			mean:    "MEAN",
			note:    "paper: DR reduces CPU network latency by 44.2% on average (up to 59.7%)",
		}.build},
		{"fig13", "CPU performance", cpuFigure{
			title:   "Figure 13: CPU performance normalized to baseline (mean [max] across GPU co-runners)",
			headers: []string{"CPU bench", "RP", "DR", "DR max"},
			metric:  cpuTput,
			max:     true,
			mean:    "MEAN of max (clogged co-runs)",
			note:    "paper: +3.8% avg across all co-runs; +8.8% avg (up to 19.8%) across clogged workloads",
		}.build},
		{"fig14", "L1 miss breakdown (LLC hit / remote hit / remote miss)", fig14},
		{"fig15", "Delegated Replies on shared-L1 organisations", fig15().build},
		{"fig16", "Delegated Replies across NoC topologies", fig16().build},
		{"fig17", "GPU performance across chip layouts",
			acrossLayouts("paper GPU gains: Baseline +25.8%, B +25.3%, C +29.0%, D +27.0%").build},
		{"fig18", "CPU performance across chip layouts",
			acrossLayouts("paper CPU gains: Baseline +3.8%, B +13.4%, C +2.2%, D +20.9% (interference-heavy layouts gain most)").build},
		{"fig19", "sensitivity: L1/LLC size, NoC bandwidth, VCs, nodes, buffers", fig19().build},
		{"breakdown", "load latency attribution by phase (Figure 4 analogue)", breakdown},
		{"clog", "Figure-1 clog-detector narrative: baseline vs Delegated Replies", clogExp},
		{"nodemix", "CPU/GPU/memory node mix study", nodeMix().build},
		{"ablation", "Delegated Replies design-space ablations", ablation().build},
		{"energy", "NoC dynamic energy and system energy", energy},
		{"area", "NoC and mechanism area model (DSENT/CACTI analogue)", area},
	}
}

// static is a figure that runs nothing.
func static(r Report) func() Report { return func() Report { return r } }

// tableI prints the simulated architecture (paper Table I).
func tableI(*Plan) func() Report {
	cfg := config.Default()
	t := stats.NewTable("Table I: simulated CPU-GPU architecture", "Component", "Value")
	gpu, cpuN, mem := cfg.Layout.Counts()
	t.AddRow("GPU cores", fmt.Sprintf("%d SIMT cores, %d warps/core, %d-wide issue, %d KB L1 %d-way %d B lines, %d MSHRs",
		gpu, cfg.GPU.WarpsPerSM, cfg.GPU.IssueWidth, cfg.GPU.L1Bytes/1024, cfg.GPU.L1Assoc, cfg.GPU.L1LineBytes, cfg.GPU.L1MSHRs))
	t.AddRow("CPU cores", fmt.Sprintf("%d cores, %d B lines, MLP-throttled Netrace-style injectors", cpuN, cfg.CPU.L1LineBytes))
	t.AddRow("Shared LLC", fmt.Sprintf("%d MB total, %d MB/slice, %d-way, %d B lines, core pointers",
		mem*cfg.LLC.SliceBytes>>20, cfg.LLC.SliceBytes>>20, cfg.LLC.Assoc, cfg.LLC.LineBytes))
	t.AddRow("DRAM", fmt.Sprintf("%d MCs, FR-FCFS, %d banks/MC, GDDR5 tCL=%d tRP=%d tRC=%d tRAS=%d tRCD=%d tRRD=%d tCCD=%d tWR=%d",
		mem, cfg.DRAM.Banks, cfg.DRAM.TCL, cfg.DRAM.TRP, cfg.DRAM.TRC, cfg.DRAM.TRAS, cfg.DRAM.TRCD, cfg.DRAM.TRRD, cfg.DRAM.TCCD, cfg.DRAM.TWR))
	t.AddRow("NoC", fmt.Sprintf("%dx%d mesh, CDR %s(req)/%s(rep), %d B channels, %d VCs x %d flits, %d-cycle routers, CPU priority",
		cfg.Layout.Width, cfg.Layout.Height, cfg.NoC.ReqOrder, cfg.NoC.RepOrder,
		cfg.NoC.ChannelBytes, cfg.NoC.VCsPerClass, cfg.NoC.FlitsPerVC, cfg.NoC.RouterDelay))
	t.AddRow("Delegated Replies", fmt.Sprintf("FRQ %d entries/core, <=%d delegation/cycle/memnode, DNF remote-miss path",
		cfg.GPU.FRQEntries, cfg.DelRep.MaxDelegationsPerCycle))
	return static(Report{[]*stats.Table{t}, []string{cfg.Layout.String()}})
}

// tableII prints the workload pairings (paper Table II).
func tableII(*Plan) func() Report {
	t := stats.NewTable("Table II: heterogeneous CPU-GPU workloads",
		"GPU bench", "Grid", "CPU bmk#1", "CPU bmk#2", "CPU bmk#3")
	pair := workload.TableII()
	for _, p := range workload.GPUProfiles() {
		c := pair[p.Name]
		t.AddRow(p.Name, fmt.Sprintf("(%d,%d,1)", p.GridX, p.GridY), c[0], c[1], c[2])
	}
	return static(Report{Tables: []*stats.Table{t}})
}

// declare submits, for each benchmark, each scheme's run with each of
// the benchmark's co-runners — all of Table II's, or only the primary —
// and returns the futures indexed [bench][scheme][co-runner].
func (p *Plan) declare(benches []string, all bool, schemes ...config.Scheme) [][][]*runner.Future {
	futs := make([][][]*runner.Future, len(benches))
	for bi, g := range benches {
		cpus := p.CoRunners(g)
		if !all {
			cpus = cpus[:1]
		}
		futs[bi] = make([][]*runner.Future, len(schemes))
		for si, scheme := range schemes {
			for _, c := range cpus {
				futs[bi][si] = append(futs[bi][si], p.Defer(BaseConfig(scheme), g, c))
			}
		}
	}
	return futs
}

// results waits for one benchmark and scheme's runs.
func results(futs []*runner.Future) []core.Results {
	out := make([]core.Results, len(futs))
	for i, f := range futs {
		out[i] = f.Results()
	}
	return out
}

// fig2 measures inter-core locality on the baseline.
func fig2(p *Plan) func() Report {
	benches := p.GPUBenches()
	futs := p.declare(benches, false, config.SchemeBaseline)
	return func() Report {
		t := stats.NewTable("Figure 2: fraction of L1 misses resident in a remote L1",
			"GPU bench", "Locality %", "L1 miss %")
		var loc []float64
		for bi, g := range benches {
			res := futs[bi][0][0].Results()
			t.AddRow(g, 100*res.InterCoreLocal, 100*res.L1MissRate)
			loc = append(loc, res.InterCoreLocal)
		}
		t.AddRow("MEAN", 100*stats.Mean(loc), "")
		return Report{[]*stats.Table{t}, []string{"paper: >57% of L1 misses are duplicated in remote L1s on average"}}
	}
}

// relStats samples the per-co-runner ratios of a metric.
func relStats(num, den []core.Results, metric func(core.Results) float64) (s stats.Sampler) {
	for i := range num {
		if d := metric(den[i]); d != 0 {
			s.Add(metric(num[i]) / d)
		}
	}
	return s
}

// fig10 is the headline GPU performance comparison.
func fig10(p *Plan) func() Report {
	benches := p.GPUBenches()
	futs := p.declare(benches, true, allSchemes...)
	return func() Report {
		t := stats.NewTable("Figure 10: GPU performance normalized to baseline (mean [min..max] across CPU co-runners)",
			"GPU bench", "RP", "DR", "DR min", "DR max")
		var rpAll, drAll []float64
		for bi, g := range benches {
			base := results(futs[bi][0])
			rp := relStats(results(futs[bi][1]), base, gpuIPC)
			dr := relStats(results(futs[bi][2]), base, gpuIPC)
			t.AddRow(g, rp.Mean(), dr.Mean(), dr.Min(), dr.Max())
			rpAll = append(rpAll, rp.Mean())
			drAll = append(drAll, dr.Mean())
		}
		t.AddRow("HM", stats.HarmonicMean(rpAll), stats.HarmonicMean(drAll), "", "")
		return Report{[]*stats.Table{t}, []string{
			"paper: DR +25.7% avg (up to 65.9%) vs baseline; +14.2% (up to 30.6%) vs RP; RP +10.1% vs baseline",
			fmt.Sprintf("measured: DR %+0.1f%%, RP %+0.1f%% vs baseline (HM)",
				100*(stats.HarmonicMean(drAll)-1), 100*(stats.HarmonicMean(rpAll)-1)),
		}}
	}
}

// fig11 reports the received data rate per GPU core.
func fig11(p *Plan) func() Report {
	benches := p.GPUBenches()
	futs := p.declare(benches, true, allSchemes...)
	return func() Report {
		t := stats.NewTable("Figure 11: received data rate (reply flits/cycle/GPU core)",
			"GPU bench", "Baseline", "RP", "DR", "DR gain %")
		var gains []float64
		for bi, g := range benches {
			var rate [3]stats.Sampler // per scheme, over co-runners
			for si := range rate {
				for _, r := range results(futs[bi][si]) {
					rate[si].Add(r.GPURecvRate)
				}
			}
			b, d := rate[0].Mean(), rate[2].Mean()
			gain := 0.0
			if b > 0 {
				gain = 100 * (d/b - 1)
			}
			t.AddRow(g, b, rate[1].Mean(), d, gain)
			gains = append(gains, gain)
		}
		t.AddRow("MEAN", "", "", "", stats.Mean(gains))
		return Report{[]*stats.Table{t}, []string{"paper: DR improves effective NoC bandwidth by 26.5% on average (up to 70.9%); RP by 11.9%"}}
	}
}

// cpuFigure is Figures 12 and 13: a CPU-side metric under RP and DR,
// normalized to the baseline per co-run and averaged per CPU
// benchmark. With max, each benchmark's best co-run gets a column and
// the summary row averages that instead of the means.
type cpuFigure struct {
	title   string
	headers []string
	metric  func(core.Results) float64
	max     bool
	mean    string // label of the summary row
	note    string
}

func (f cpuFigure) build(p *Plan) func() Report {
	benches := p.GPUBenches()
	futs := p.declare(benches, true, allSchemes...)
	return func() Report {
		perCPU := map[string]*[2]stats.Sampler{} // RP, DR
		for bi, g := range benches {
			base, rp, dr := results(futs[bi][0]), results(futs[bi][1]), results(futs[bi][2])
			for i, c := range p.CoRunners(g) {
				if perCPU[c] == nil {
					perCPU[c] = &[2]stats.Sampler{}
				}
				if b := f.metric(base[i]); b > 0 {
					perCPU[c][0].Add(f.metric(rp[i]) / b)
					perCPU[c][1].Add(f.metric(dr[i]) / b)
				}
			}
		}
		t := stats.NewTable(f.title, f.headers...)
		var summary []float64
		for _, prof := range workload.CPUProfiles() {
			e := perCPU[prof.Name]
			if e == nil {
				continue
			}
			row := []any{prof.Name, e[0].Mean(), e[1].Mean()}
			if f.max {
				row = append(row, e[1].Max())
			}
			summary = append(summary, row[len(row)-1].(float64))
			t.AddRow(row...)
		}
		last := []any{f.mean, "", ""}[:len(f.headers)-1] // blank up to the summarized column
		t.AddRow(append(last, stats.Mean(summary))...)
		return Report{[]*stats.Table{t}, []string{f.note}}
	}
}

// fig14 reports the Delegated Replies miss-service breakdown.
func fig14(p *Plan) func() Report {
	benches := p.GPUBenches()
	futs := p.declare(benches, true, config.SchemeDelegatedReplies)
	return func() Report {
		t := stats.NewTable("Figure 14: L1 miss breakdown under Delegated Replies (%)",
			"GPU bench", "LLC hit", "Remote hit", "Remote miss", "Forwarded", "RemoteHit/Fwd")
		var fwd, rh []float64
		for bi, g := range benches {
			var b core.Breakdown
			for _, res := range results(futs[bi][0]) {
				b.LLCDirect += res.Breakdown.LLCDirect
				b.RemoteHit += res.Breakdown.RemoteHit
				b.RemoteMiss += res.Breakdown.RemoteMiss
			}
			tot := b.Total()
			if tot == 0 {
				continue
			}
			t.AddRow(g,
				100*float64(b.LLCDirect)/float64(tot),
				100*float64(b.RemoteHit)/float64(tot),
				100*float64(b.RemoteMiss)/float64(tot),
				100*b.ForwardedFrac(), 100*b.RemoteHitFrac())
			fwd = append(fwd, b.ForwardedFrac())
			rh = append(rh, b.RemoteHitFrac())
		}
		t.AddRow("MEAN", "", "", "", 100*stats.Mean(fwd), 100*stats.Mean(rh))
		return Report{[]*stats.Table{t}, []string{"paper: 54.8% of misses forwarded on average; 74.4% of forwarded misses hit remotely"}}
	}
}

// breakdown reproduces the Figure-4-style end-to-end load latency
// attribution: for each scheme, where do the cycles of a GPU load go —
// waiting in injection queues (the clogging symptom), head-flit transit,
// tail serialization, waiting stuck before delegation, or node service
// time. Under Delegated Replies the queue component should collapse
// while a small deleg-wait component appears in its place.
func breakdown(p *Plan) func() Report {
	benches := p.SubsetBenches()
	futs := p.declare(benches, false, allSchemes...)
	return func() Report {
		t := stats.NewTable("Latency attribution: avg cycles of a GPU load per phase (Figure 4 analogue)",
			"GPU bench", "Scheme", "Total", "Queue", "Transit", "Serialize", "DelegWait", "Service", "Hops", "Legs")
		queueShare := make([][]float64, len(allSchemes))
		for bi, g := range benches {
			for si, scheme := range allSchemes {
				lb := futs[bi][si][0].Results().LoadBreak
				if lb.Count == 0 {
					continue
				}
				t.AddRow(g, scheme.String(), lb.TotalAvg, lb.QueueAvg, lb.XferAvg,
					lb.SerAvg, lb.DelegWaitAvg, lb.ServiceAvg, lb.HopsAvg, lb.LegsAvg)
				if lb.TotalAvg > 0 {
					queueShare[si] = append(queueShare[si], lb.QueueAvg/lb.TotalAvg)
				}
			}
		}
		var notes []string
		for si, scheme := range allSchemes {
			notes = append(notes, fmt.Sprintf("%-10s queueing share of load latency: %.1f%% (mean)",
				scheme, 100*stats.Mean(queueShare[si])))
		}
		return Report{[]*stats.Table{t}, append(notes,
			"paper: reply queueing at the memory nodes dominates baseline load latency; Delegated Replies removes it")}
	}
}

// energy estimates NoC dynamic energy from measured flit-hop activity.
func energy(p *Plan) func() Report {
	cfg := config.Default()
	areaMM2 := power.MeshNoCArea(cfg.Layout.Width, cfg.Layout.Height, cfg.NoC)
	benches := p.GPUBenches()
	futs := p.declare(benches, false, allSchemes...)
	perInstr := func(bi, si int) float64 {
		res := futs[bi][si][0].Results()
		a := power.Activity{
			FlitHops: res.FlitHops, BufferWrites: res.FlitHops,
			Cycles: res.Cycles, ChannelBits: cfg.NoC.ChannelBytes * 8,
			AreaMM2: areaMM2, ClockGHz: 1.4,
		}
		if res.GPUInsts == 0 {
			return 0
		}
		return power.DynamicEnergyPJ(a) / float64(res.GPUInsts)
	}
	return func() Report {
		t := stats.NewTable("NoC dynamic energy per unit work (pJ per GPU instruction), vs baseline",
			"GPU bench", "Baseline", "RP", "DR", "RP rel", "DR rel")
		var rpRel, drRel []float64
		for bi, g := range benches {
			b, rp, d := perInstr(bi, 0), perInstr(bi, 1), perInstr(bi, 2)
			t.AddRow(g, b, rp, d, rp/b, d/b)
			rpRel = append(rpRel, rp/b)
			drRel = append(drRel, d/b)
		}
		t.AddRow("MEAN", "", "", "", stats.Mean(rpRel), stats.Mean(drRel))
		return Report{[]*stats.Table{t}, []string{
			"paper: DR reduces NoC dynamic energy 1.1% (shorter data paths); RP increases it 9.4% (probe traffic);",
			"       system energy falls 13.6% (DR) / 7.4% (RP) mostly from shorter execution time",
		}}
	}
}

// area prints the DSENT/CACTI-analogue cost model (Section III/IV).
func area(*Plan) func() Report {
	cfg := config.Default()
	base := power.MeshNoCArea(cfg.Layout.Width, cfg.Layout.Height, cfg.NoC)
	double := cfg.NoC
	double.ChannelBytes *= 2
	dbl := power.MeshNoCArea(cfg.Layout.Width, cfg.Layout.Height, double)
	frq := power.FRQArea(40, cfg.GPU.FRQEntries)
	ptr := power.PointerArea(8<<20, cfg.LLC.LineBytes, 6)
	t := stats.NewTable("Area model (22 nm)", "Component", "mm^2", "Paper")
	t.AddRow("baseline mesh NoC (2 phys networks)", base, "2.27")
	t.AddRow("double-bandwidth mesh NoC", dbl, "5.76")
	t.AddRow("double/baseline ratio", dbl/base, "2.5x")
	t.AddRow("FRQs (40 cores x 8 entries)", frq, "0.092")
	t.AddRow("LLC/MSHR core pointers (6 bit)", ptr, "0.08")
	t.AddRow("Delegated Replies total", frq+ptr, "0.172")
	t.AddRow("DR / extra NoC-doubling area", (frq+ptr)/(dbl-base), "~0.05")
	return static(Report{Tables: []*stats.Table{t}})
}
