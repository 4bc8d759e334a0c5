package experiment

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"delrep/internal/runner"
)

// TestGoldenRecord holds every figure value to the committed record:
// the whole evaluation is run in-process on the -quick set, exactly as
// `expdriver -quick all` (make record) runs it, and each figure's
// section must equal its "### name" section of experiments_output.txt
// byte for byte. The file's sections and the registry must also name
// the same figures in the same order, so a figure cannot be added,
// dropped or reordered without the record following. A deliberate
// change to simulated behaviour regenerates the record (make record).
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
	for _, f := range Figures() {
		var got bytes.Buffer
		plan.Render(&got, f)
		if got.String() != sections[f.Name] {
			t.Errorf("%s differs from its section of experiments_output.txt\n--- got ---\n%s--- want ---\n%s",
				f.Name, got.String(), sections[f.Name])
		}
	}
	if plan.Finish("test") != 0 {
		t.Error("simulations failed")
	}
}
