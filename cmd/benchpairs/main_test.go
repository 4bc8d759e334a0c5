package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtures are four serve pairs, parent first, over testdata/bench.json:
// peak_rss_mb falls 14 % in every pair, cpu_s rises 40 %, wall_s rises
// 1.25 % over a parent without spread, and hot_jobs_per_s moves less
// than the parent's own spread.
func fixtures() []string {
	var files []string
	for i := range 4 {
		files = append(files, filepath.Join("testdata", fmt.Sprintf("base-%d.json", i)),
			filepath.Join("testdata", fmt.Sprintf("change-%d.json", i)))
	}
	return files
}

func TestReduceFixtures(t *testing.T) {
	out := filepath.Join(t.TempDir(), "pairs.json")
	var printed strings.Builder
	if err := run(&printed, filepath.Join("testdata", "bench.json"), out, fixtures()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var red reduction
	if err := json.Unmarshal(raw, &red); err != nil {
		t.Fatal(err)
	}
	if red.Workload != "serve" || red.Pairs != 4 || fmt.Sprint(red.Seeds) != "[5600 5601 5602 5603]" {
		t.Fatalf("reduction of %s, %d pairs, seeds %v", red.Workload, red.Pairs, red.Seeds)
	}
	if fmt.Sprint(red.FailRatio.Base, red.FailRatio.Change) != "[0 0 0 0] [0 0 0 0.001]" {
		t.Errorf("fail ratios %v %v", red.FailRatio.Base, red.FailRatio.Change)
	}
	for name, want := range map[string]struct {
		verdict string
		wins    int
		base    quart
		ratio   float64
	}{
		"peak_rss_mb":    {"improved", 4, quart{33.525, 33.65, 33.85}, 0.8629},
		"cpu_s":          {"regressed", 0, quart{9.925, 10.025, 10.0875}, 1.4015},
		"wall_s":         {"within-bound", 0, quart{8, 8, 8}, 1.0125},
		"hot_jobs_per_s": {"unresolved", 2, quart{4925, 5025, 5087.5}, 1.0000},
	} {
		m := red.Metrics[name]
		if m == nil {
			t.Fatalf("%s missing", name)
		}
		near := func(a, b float64) bool { return math.Abs(a-b) < 1e-4*math.Abs(b) }
		if m.Verdict != want.verdict || m.Wins != want.wins || len(m.Ratios) != 4 ||
			!near(m.Base.Q1, want.base.Q1) || !near(m.Base.Median, want.base.Median) || !near(m.Base.Q3, want.base.Q3) ||
			math.Abs(m.Ratio.Median-want.ratio) > 1e-4 {
			t.Errorf("%s: %s, %d wins, parent %+v, median ratio %.4f; want %s, %d wins, parent %+v, median ratio %.4f",
				name, m.Verdict, m.Wins, m.Base, m.Ratio.Median, want.verdict, want.wins, want.base, want.ratio)
		}
		if !strings.Contains(printed.String(), name) || !strings.Contains(printed.String(), want.verdict) {
			t.Errorf("the printed table lacks %s's verdict:\n%s", name, printed.String())
		}
	}
}

// An A/A reduction, the parent against itself, finds nothing.
func TestReduceSelf(t *testing.T) {
	var files []string
	for _, f := range fixtures() {
		if strings.Contains(f, "base") {
			files = append(files, f, f)
		}
	}
	var printed strings.Builder
	if err := run(&printed, filepath.Join("testdata", "bench.json"), "", files); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"improved", "regressed"} {
		if strings.Contains(printed.String(), v) {
			t.Errorf("an A/A reduction reads %s:\n%s", v, printed.String())
		}
	}
}

func TestReduceRefuses(t *testing.T) {
	bench := filepath.Join("testdata", "bench.json")
	dir := t.TempDir()
	other := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(other, []byte(`{"workload":"fleet","metrics":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	lacking := filepath.Join(dir, "lacking.json")
	if err := os.WriteFile(lacking, []byte(`{"workload":"serve","seed":9,"metrics":{"wall_s":{"value":1}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	files := fixtures()
	for _, c := range []struct {
		name  string
		files []string
		want  string
	}{
		{"no runs", nil, "in pairs"},
		{"an odd run", files[:3], "in pairs"},
		{"another workload", append(files[:2:2], other, files[3]), "fleet run"},
		{"a missing metric", append(files[:2:2], lacking, files[3]), "lacks cpu_s"},
	} {
		if err := run(&strings.Builder{}, bench, "", c.files); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
