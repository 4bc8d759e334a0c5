package core

import (
	"testing"

	"delrep/internal/config"
)

// TestDRStallsGPUOnDedup pins a known defect, ROADMAP item 4: on
// BT+dedup (seed 1) Delegated Replies stops the GPU outright once the
// run is long enough, while RP and the baseline keep it going. Each
// scheme runs 12 000 warm-up and 400 000 measured cycles, and the GPU
// instructions retired between measured cycles 300 000 and 400 000
// are read at two 4 000-cycle checkpoints of the one run. The fix of
// the stall turns this test into a claim that DR keeps the GPU going.
func TestDRStallsGPUOnDedup(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("three 412 000-cycle runs (≈ 6 s on two cores)")
	}
	const warm, from, to = 12_000, 300_000, 400_000
	for _, c := range []struct {
		scheme   config.Scheme
		min, max int64 // retired GPU instructions in [from, to)
	}{
		{config.SchemeDelegatedReplies, 0, 999},
		{config.SchemeRP, 20_001, 1 << 62},
		{config.SchemeBaseline, 20_001, 1 << 62},
	} {
		t.Run(c.scheme.String(), func(t *testing.T) {
			t.Parallel()
			cfg := config.Default()
			cfg.Scheme = c.scheme
			cfg.Seed = 1
			cfg.WarmupCycles, cfg.MeasureCycles = warm, to
			sys := NewSystem(cfg, "BT", "dedup")
			insts := func() (n int64) {
				for _, g := range sys.GPUs {
					n += g.SM.Insts
				}
				return n
			}
			var atFrom, atTo int64 = -1, -1
			_, err := sys.RunWorkloadCtx(RunControl{Window: 4_000, OnProgress: func(done, _ int64) {
				switch done {
				case warm + from:
					atFrom = insts()
				case warm + to:
					atTo = insts()
				}
			}})
			if err != nil || atFrom < 0 || atTo < 0 {
				t.Fatalf("run did not reach both checkpoints: %v", err)
			}
			if got := atTo - atFrom; got < c.min || got > c.max {
				t.Errorf("GPU retired %d instructions in measured cycles %d–%d, want [%d, %d] "+
					"(ROADMAP item 4: DR stops the GPU on dedup co-runs; a change here is a fix or a new regression)",
					got, from, to, c.min, c.max)
			} else {
				t.Logf("GPU retired %d instructions in measured cycles %d–%d", got, from, to)
			}
		})
	}
}
