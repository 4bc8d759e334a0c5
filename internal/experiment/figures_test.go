package experiment

import (
	"strings"
	"testing"

	"delrep/internal/config"
)

// TestAreaLabelFollowsConfig: the FRQ row's label names the core count
// and queue depth its area was computed from, not a fixed "8 entries".
func TestAreaLabelFollowsConfig(t *testing.T) {
	for _, c := range []struct {
		entries int
		label   string
	}{
		{0, "FRQs (40 cores x 8 entries)"}, // the default configuration
		{32, "FRQs (40 cores x 32 entries)"},
	} {
		cfg := config.Default()
		if c.entries != 0 {
			cfg.GPU.FRQEntries = c.entries
		}
		if got := areaReport(cfg).Tables[0].String(); !strings.Contains(got, c.label) {
			t.Errorf("FRQEntries %d: area table lacks %q:\n%s", cfg.GPU.FRQEntries, c.label, got)
		}
	}
}
