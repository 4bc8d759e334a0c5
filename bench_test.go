// Package delrep's benchmark harness: BenchmarkFigure runs every figure
// value of internal/experiment — the same values `go run
// ./cmd/expdriver all` prints — at benchmark-sized windows, so `go test
// -bench=.` times the evaluation figure by figure without re-declaring
// it. The remaining benchmarks are micro-costs no figure isolates.
package delrep

import (
	"io"
	"testing"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/experiment"
	"delrep/internal/power"
	"delrep/internal/runner"
	"delrep/internal/workload"
)

// BenchmarkFigure evaluates each figure on the -quick workload set at
// 3k + 6k cycle windows, uncached, on a fresh engine per iteration
// (runs shared inside a figure are simulated once, as in expdriver).
func BenchmarkFigure(b *testing.B) {
	for _, f := range experiment.Figures() {
		b.Run(f.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan := experiment.NewPlan(true, 1, runner.New(runner.Options{}))
				plan.Warm, plan.Measure = 3_000, 6_000
				plan.Render(io.Discard, f)
				if plan.Finish("bench") != 0 {
					b.Fatal("simulations failed")
				}
			}
		})
	}
}

// BenchmarkAreaModel exercises the DSENT/CACTI-analogue cost model
// (Table-free Section III/IV numbers).
func BenchmarkAreaModel(b *testing.B) {
	noc := config.Default().NoC
	var ratio float64
	for i := 0; i < b.N; i++ {
		base := power.MeshNoCArea(8, 8, noc)
		dbl := noc
		dbl.ChannelBytes *= 2
		ratio = power.MeshNoCArea(8, 8, dbl) / base
	}
	b.ReportMetric(ratio, "2x/1x-area")
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (cycles simulated per second of wall clock).
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := experiment.BaseConfig(config.SchemeDelegatedReplies)
	sys := core.NewSystem(cfg, "HS", "vips")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(1000)
	}
	b.ReportMetric(float64(1000*b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// BenchmarkAddrGen measures the workload generator's cost.
func BenchmarkAddrGen(b *testing.B) {
	prof := workload.GPUProfileByName("HS")
	g := workload.NewAddrGen(prof, 0, 40, config.CTARoundRobin, 1)
	g.BindWavefront(workload.NewWavefront(prof.ShareGroup))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
