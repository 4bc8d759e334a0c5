package fleet

import (
	"flag"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden metric catalogue from the live /metrics")

var labelValue = regexp.MustCompile(`="(?:[^"\\]|\\.)*"`)

// metricCatalogue reduces a /metrics body to its catalogue: the sorted
// set of "# TYPE" lines and name{label keys} series, values stripped.
func metricCatalogue(body string) string {
	set := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# TYPE"):
			set[line] = true
		case !strings.HasPrefix(line, "#"):
			series := line[:strings.LastIndexByte(line, ' ')]
			set[labelValue.ReplaceAllString(series, "")] = true
		}
	}
	lines := make([]string, 0, len(set))
	for l := range set {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// The coordinator's half of the metric catalogue (the daemon's is
// internal/serve/testdata/metrics.delrepd.golden).
func TestMetricCatalogue(t *testing.T) {
	_, ts := newCoordinator(t, newWorker(t, t.TempDir()))
	submitWait(t, ts.URL, shortSpec(560))
	_, body, _ := call(t, http.MethodGet, ts.URL+"/metrics", nil)
	got := metricCatalogue(string(body))
	const golden = "testdata/metrics.delrepfleet.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics catalogue differs from %s (rerun with -update if intended):\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
