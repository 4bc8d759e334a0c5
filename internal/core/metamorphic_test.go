package core

import (
	"fmt"
	"testing"

	"delrep/internal/config"
)

// TestZeroDelegationBudgetIsBaseline is a metamorphic relation: DR
// with no delegation bandwidth never turns a stuck reply into a
// delegated request, so it must replay the baseline exactly — the
// same cycles and the same end-state digest, with zero delegations —
// on co-runs where DR proper delegates hundreds of replies or more.
func TestZeroDelegationBudgetIsBaseline(t *testing.T) {
	for _, gpu := range []string{"2DCON", "HS", "BP"} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s+vips/s%d", gpu, seed), func(t *testing.T) {
				t.Parallel()
				cfg := config.Default()
				cfg.WarmupCycles, cfg.MeasureCycles, cfg.Seed = 2000, 6000, seed
				cfg.Scheme = config.SchemeBaseline
				base := RunAudit(cfg, gpu, "vips")
				cfg.Scheme = config.SchemeDelegatedReplies
				cfg.DelRep.MaxDelegationsPerCycle = 0
				dr := RunAudit(cfg, gpu, "vips")
				if dr.Results.Delegations != 0 {
					t.Errorf("DR with a zero budget delegated %d replies", dr.Results.Delegations)
				}
				if dr.Cycles != base.Cycles || dr.Digest != base.Digest {
					t.Errorf("DR with a zero budget ended at (%d, %#016x), the baseline at (%d, %#016x)",
						dr.Cycles, dr.Digest, base.Cycles, base.Digest)
				}
			})
		}
	}
}

// TestNoGPUSchemesAgree is a metamorphic relation: on a chip with no
// GPU cores there is no GPU reply to delegate and no GPU L1 to probe,
// and CPU replies are never delegated, so baseline, RP and DR must end
// on one end-state digest per seed, with zero delegations and probes.
func TestNoGPUSchemesAgree(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("HS+vips/s%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := config.Default()
			cfg.Layout = config.LayoutFromCounts("nogpu", 8, 8, 56, 8)
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.Seed = 2000, 6000, seed
			schemes := []config.Scheme{config.SchemeBaseline, config.SchemeRP, config.SchemeDelegatedReplies}
			var base AuditRun
			for i, scheme := range schemes {
				cfg.Scheme = scheme
				run := RunAudit(cfg, "HS", "vips")
				if run.Results.Delegations != 0 || run.Results.ProbesSent != 0 {
					t.Errorf("%v with no GPU: %d delegations, %d probes", scheme, run.Results.Delegations, run.Results.ProbesSent)
				}
				if i == 0 {
					base = run
				} else if run.Cycles != base.Cycles || run.Digest != base.Digest {
					t.Errorf("%v ended at (%d, %#016x), %v at (%d, %#016x)",
						scheme, run.Cycles, run.Digest, schemes[0], base.Cycles, base.Digest)
				}
			}
		})
	}
}
