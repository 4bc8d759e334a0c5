package serve

import (
	"flag"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden metric catalogues from the live /metrics")

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

// The names, types and label sets /metrics emits after one finished
// job are the committed catalogue: a series cannot be renamed, dropped
// or relabelled without the golden's diff showing it.
func TestMetricCatalogue(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if v, _ := submit(t, ts, SubmitRequest{Spec: shortSpec(112)}, "?wait=1"); v.Status != StatusDone {
		t.Fatalf("job ended %s", v.Status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := metricCatalogue(readAll(t, resp))
	const golden = "testdata/metrics.delrepd.golden"
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
