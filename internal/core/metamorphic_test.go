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
