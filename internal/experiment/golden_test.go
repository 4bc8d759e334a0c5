package experiment

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"delrep/internal/runner"
)

// gainRE is benchmark/sweep.go's: the sweep workload reads
// model.dr_gain_pct from the one fig10 note it matches.
var gainRE = regexp.MustCompile(`measured: DR \+?(-?[0-9.]+)%`)

// TestGoldenRecord holds every figure value to the committed record:
// the whole evaluation is run in-process on the -quick set, exactly as
// `expdriver -quick all` (make record) runs it. Every checked claim
// must pass, claim ids must be unique, and no note may carry a paper
// sentence. Each figure's section must also equal its "### name"
// section of experiments_output.txt byte for byte, and those
// differences are reported last, so a regeneration that breaks a
// claim fails by the claim's id first. The
// file's sections and the registry must also name the same figures in
// the same order, so a figure cannot be added, dropped or reordered
// without the record following. A deliberate change to simulated
// behaviour regenerates the record (make record).
func TestGoldenRecord(t *testing.T) {
	record, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	sections := map[string]string{}
	for _, part := range strings.Split("\n"+string(record), "\n### ")[1:] {
		name, _, _ := strings.Cut(part, " ")
		names = append(names, name)
		sections[name] = "### " + part + "\n"
	}
	// The split consumed the newline that ends the file's last section.
	last := names[len(names)-1]
	sections[last] = strings.TrimSuffix(sections[last], "\n")

	var registry []string
	for _, f := range Figures() {
		registry = append(registry, f.Name)
	}
	if got, want := strings.Join(registry, " "), strings.Join(names, " "); got != want {
		t.Fatalf("registry and record disagree on the figures\nregistry: %s\nrecord:   %s", got, want)
	}

	if testing.Short() || raceDetector {
		// ~45 s on two cores, ~7 min under the race detector — where
		// internal/runner's own tests already cover the engine this
		// would exercise.
		t.Skip("runs the whole quick evaluation (161 simulations)")
	}
	plan := NewPlan(true, 1, runner.New(runner.Options{}))
	claimed := map[string]string{} // claim id → figure
	var diffs []string
	for _, f := range Figures() {
		var got bytes.Buffer
		rep := plan.Render(&got, f)
		for _, c := range rep.Claims {
			if c.Verdict == "FAIL" {
				t.Errorf("%s: claim %s FAILS: %s", f.Name, c.ID, c.Paper)
			}
			if other, dup := claimed[c.ID]; dup {
				t.Errorf("%s: claim id %s is also %s's", f.Name, c.ID, other)
			}
			claimed[c.ID] = f.Name
		}
		gainLines := 0
		for _, n := range rep.Notes {
			if strings.HasPrefix(n, "paper") {
				t.Errorf("%s: note %q is a paper sentence, not a Claim", f.Name, n)
			}
			if gainRE.MatchString(n) {
				gainLines++
			}
		}
		if f.Name == "fig10" && gainLines != 1 {
			t.Errorf("fig10: %d notes match the benchmark's %s, want 1", gainLines, gainRE)
		}
		if got.String() != sections[f.Name] {
			diffs = append(diffs, fmt.Sprintf("%s differs from its section of experiments_output.txt\n--- got ---\n%s--- want ---\n%s",
				f.Name, got.String(), sections[f.Name]))
		}
	}
	for _, d := range diffs {
		t.Error(d)
	}
	if plan.Finish("test") != 0 {
		t.Error("simulations failed")
	}
}
