package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/simspec"
)

// runMainEnv makes the test binary behave as delrepsim itself, so the
// tests below drive the real main() — flags, stdout, stderr, exit
// status — without needing a separate build.
const runMainEnv = "DELREPSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	// A single run uses -cache auto unless told otherwise: keep the
	// entries the tests write out of the user's cache.
	dir, err := os.MkdirTemp("", "delrepsim-test-cache")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Setenv("DELREP_CACHE_DIR", dir)
	status := m.Run()
	os.RemoveAll(dir)
	os.Exit(status)
}

// baseArgs are the short-window defaults every test run starts from;
// later flags override them.
var baseArgs = []string{"-gpu", "NN", "-cpu", "vips", "-scheme", "delegated", "-warm", "200", "-cycles", "450"}

// run runs the binary with short windows and returns its stdout,
// stderr and exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(append([]string{}, baseArgs...), args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("delrepsim %v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// delrepsim is run for invocations that must succeed.
func delrepsim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, status := run(t, args...)
	if status != 0 {
		t.Fatalf("delrepsim %v: exit status %d\n%s", args, status, stderr)
	}
	return stdout, stderr
}

// TestFlagSpecParity pins "a CLI run is a simspec.Spec": for every
// field of the spec, setting it by flag and setting it in a -spec file
// print identical -json bytes. The flag is named by the field's JSON
// tag, so a new field without a flag fails here. "parallel" is the one
// field with no flag: old clients still send it, it is accepted and
// ignored, so a file carrying it prints what the file without it prints.
func TestFlagSpecParity(t *testing.T) {
	// A non-default value per field, by JSON tag.
	alt := map[string]any{
		"gpu": "HS", "cpu": "dedup", "scheme": "rp", "layout": "C", "topo": "fbfly",
		"routing": "adaptive", "l1org": "dyneb", "channel": 24, "vcdepth": 6,
		"warm": int64(150), "cycles": int64(300), "seed": int64(9), "parallel": 4,
	}
	base := simspec.Spec{GPU: "NN", CPU: "vips", Scheme: "delegated", Warmup: 200, Cycles: 450}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		val, ok := alt[tag]
		if !ok {
			t.Errorf("spec field %s (%q) has no value in this test", typ.Field(i).Name, tag)
			continue
		}
		spec := base
		reflect.ValueOf(&spec).Elem().Field(i).Set(reflect.ValueOf(val))
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(file, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		flags := []string{"-" + tag, fmt.Sprint(val)}
		if tag == "parallel" {
			flags = nil
		}
		byFlag, _ := delrepsim(t, append(flags, "-json")...)
		bySpec, _ := delrepsim(t, "-spec", file, "-json")
		if byFlag != bySpec {
			t.Errorf("-%s %v: -json differs between the flag and -spec %s:\n%s\nvs\n%s", tag, val, blob, byFlag, bySpec)
		}
	}
}

// TestRemoteJSONIsLocalJSON pins the fleet's core invariant at the CLI:
// `-json -remote` against a live daemon prints the bytes a local `-json`
// run of the same flags prints, defaults and non-default fields alike,
// and never writes the local -cache it was handed.
func TestRemoteJSONIsLocalJSON(t *testing.T) {
	daemon := serve.New(serve.Options{Engine: runner.New(runner.Options{Workers: 1})})
	srv := httptest.NewServer(daemon.Handler())
	defer srv.Close()
	dir := t.TempDir()
	for _, flags := range [][]string{
		nil,
		{"-gpu", "HS", "-cpu", "dedup", "-scheme", "rp", "-layout", "C", "-topo", "fbfly", "-routing", "adaptive",
			"-l1org", "dyneb", "-channel", "24", "-vcdepth", "6", "-seed", "9"},
	} {
		local, _ := delrepsim(t, append(flags, "-json")...)
		remote, stderr := delrepsim(t, append(flags, "-json", "-remote", srv.URL, "-cache", dir)...)
		if local != remote {
			t.Errorf("%v: -json differs between a local and a -remote run:\n%s\nvs\n%s", flags, local, remote)
		}
		if !strings.Contains(stderr, "delrepsim: served by ") {
			t.Errorf("%v: stderr does not say who served the run:\n%s", flags, stderr)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("a -remote single run wrote %d entries to the local cache", len(left))
	}
}

// TestSweepPointsAreSingleRuns pins that a sweep point goes through
// the same Spec.Resolve as a single run. What a single run rejects, a
// sweep rejects with the same message and status before any simulation
// (it used to print an all-zero row and exit 0); what it accepts lands
// in the cache under the key of the same point run singly, so caches
// written by either stay warm for the other.
func TestSweepPointsAreSingleRuns(t *testing.T) {
	for _, bad := range [][]string{
		{"-gpu", "NOPE"},
		{"-cpu", "NOPE"},
		{"-scheme", "bogus"},
		{"-layout", "Z"},
		{"-topo", "torus"},
		{"-routing", "valiant"},
		{"-l1org", "victim"},
		{"-cycles", "-5"},
	} {
		_, wantErr, wantStatus := run(t, bad...)
		stdout, stderr, status := run(t, append(bad, "-sweep", "-cache", "off")...)
		if wantStatus != 2 || status != 2 || stderr != wantErr || stdout != "" {
			t.Errorf("%v: single run exits %d saying %q; -sweep exits %d saying %q, stdout %q",
				bad, wantStatus, wantErr, status, stderr, stdout)
		}
	}

	dir := t.TempDir()
	_, stderr := delrepsim(t, "-sweep", "-gpu", "NN,HS", "-scheme", "baseline,delegated", "-vcdepth", "6", "-cache", dir)
	if !strings.Contains(stderr, "delrepsim: 4 simulations executed") {
		t.Errorf("cold sweep summary:\n%s", stderr)
	}
	cache, err := runner.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []simspec.Spec{
		{GPU: "NN", Scheme: "baseline"}, {GPU: "HS", Scheme: "baseline"},
		{GPU: "NN", Scheme: "delegated"}, {GPU: "HS", Scheme: "delegated"},
	} {
		pt.CPU, pt.VCDepth, pt.Warmup, pt.Cycles = "vips", 6, 200, 450
		cfg, norm, err := pt.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := cache.Get(runner.Key(cfg, norm.GPU, norm.CPU)); !ok {
			t.Errorf("sweep point %+v is not cached under its single-run key", pt)
		}
	}
}

// TestSweepFailedRun pins the other half: a run that fails inside the
// engine (here: a -remote endpoint that is ready but answers every job
// with 500) makes -sweep exit 1, mark the row and name the
// spec in the shared failed-run report, as expdriver does, instead of
// exiting 0 on a row of zeros.
func TestSweepFailedRun(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.Error(w, "no capacity", http.StatusInternalServerError)
		}
	}))
	defer srv.Close()
	stdout, stderr, status := run(t, "-sweep", "-cache", "off", "-remote", srv.URL)
	if status != 1 || !strings.Contains(stdout, "DelegatedReplies  FAILED") {
		t.Errorf("exit status %d, want 1 and a FAILED row:\n%s", status, stdout)
	}
	for _, want := range []string{
		"delrepsim: 0 simulations executed",
		"delrepsim: 1 simulation(s) failed:",
		"  sweep: NN+vips DelegatedReplies seed=1 (key ",
		"submit answered 500",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestSweepSingleRunFlags: -sweep rejects every flag that reports on
// one local simulation (it used to ignore all but -spec silently).
func TestSweepSingleRunFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	for _, flags := range [][]string{
		{"-json"}, {"-heatmap"}, {"-clog"}, {"-phase-profile"},
		{"-metrics-out", out}, {"-trace-out", out}, {"-telemetry-out", out}, {"-spec", out},
	} {
		stdout, stderr, status := run(t, append([]string{"-sweep", "-cache", "off"}, flags...)...)
		want := flags[0] + " reports on one local simulation and cannot combine with -sweep"
		if status != 2 || !strings.Contains(stderr, want) || stdout != "" {
			t.Errorf("-sweep %v: exit status %d, stdout %q, stderr:\n%s", flags, status, stdout, stderr)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Errorf("a rejected flag still wrote %s", out)
	}
}

// TestSingleRunIsCached pins that a single run is an engine run: a
// cold run with -cache writes its one entry, warm reruns print the
// same bytes without simulating (no progress line), and -telemetry-out
// records the engine's spans. An instrumented run, which builds its
// own system, prints those bytes too.
func TestSingleRunIsCached(t *testing.T) {
	dir, tmp := t.TempDir(), t.TempDir()
	directJSON, _ := delrepsim(t, "-json", "-cache", "off", "-phase-profile")
	direct, _ := delrepsim(t, "-cache", "off", "-phase-profile")
	for _, c := range []struct {
		name   string
		json   bool
		cold   bool
		wantRs []string // spans the -telemetry-out trace must hold, and cache.lookup's hit
	}{
		{"cold", true, true, []string{"cache.lookup:false", "engine.run", "window 0"}},
		{"warm", true, false, []string{"cache.lookup:true"}},
		{"warm report", false, false, []string{"cache.lookup:true"}},
	} {
		telem := filepath.Join(tmp, c.name+".json")
		args, want := []string{"-cache", dir, "-telemetry-out", telem}, direct
		if c.json {
			args, want = append(args, "-json"), directJSON
		}
		stdout, stderr := delrepsim(t, args...)
		if stdout != want {
			t.Errorf("%s: stdout differs from the instrumented run's:\n%s\nvs\n%s", c.name, stdout, want)
		}
		if simulated := strings.Contains(stderr, "  run NN"); simulated != c.cold {
			t.Errorf("%s: simulated = %v, stderr:\n%s", c.name, simulated, stderr)
		}
		if ents, _ := filepath.Glob(filepath.Join(dir, "*.run")); len(ents) != 1 {
			t.Errorf("%s: the cache holds %d entries, want 1", c.name, len(ents))
		}
		blob, err := os.ReadFile(telem)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(blob, &trace); err != nil {
			t.Fatalf("%s: %v", telem, err)
		}
		var got []string
		for _, ev := range trace.TraceEvents {
			if hit, ok := ev.Args["hit"]; ok {
				ev.Name += fmt.Sprintf(":%v", hit)
			}
			got = append(got, ev.Name)
		}
		for _, span := range c.wantRs {
			if !slices.Contains(got, span) {
				t.Errorf("%s: telemetry spans %q lack %q", c.name, got, span)
			}
		}
		if !c.cold && slices.Contains(got, "engine.run") {
			t.Errorf("%s: a cache hit recorded engine.run: %q", c.name, got)
		}
	}
}

// TestInstrumentFlagsRejected: an instrument or engine flag out of
// range exits 2 instead of falling back to a default or never firing, and
// -telemetry-out, which records the engine's spans, cannot combine
// with an instrument, which runs beside the engine. Neither writes a
// file.
func TestInstrumentFlagsRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-trace-out", out, "-trace-sample", "0"}, "-trace-sample must be at least 1 with -trace-out"},
		{[]string{"-metrics-out", out, "-metrics-window", "-5"}, "-metrics-window must be at least 1 cycle, not -5"},
		{[]string{"-metrics-out", out, "-metrics-window", "0"}, "-metrics-window must be at least 1 cycle, not 0"},
		{[]string{"-clog", "-clog-util", "0"}, "-clog-util must be in (0, 1], not 0"},
		{[]string{"-clog", "-clog-util", "7"}, "-clog-util must be in (0, 1], not 7"},
		{[]string{"-clog", "-clog-util", "NaN"}, "-clog-util must be in (0, 1], not NaN"},
		{[]string{"-telemetry-out", out, "-heatmap"}, "-heatmap reports on one local simulation and cannot combine with -telemetry-out"},
		{[]string{"-telemetry-out", out, "-phase-profile"}, "-phase-profile reports on one local simulation and cannot combine with -telemetry-out"},
		{[]string{"-telemetry-out", out, "-clog"}, "-clog reports on one local simulation and cannot combine with -telemetry-out"},
		{[]string{"-telemetry-out", out, "-metrics-out", out}, "-metrics-out reports on one local simulation and cannot combine with -telemetry-out"},
		{[]string{"-telemetry-out", out, "-trace-out", out}, "-trace-out reports on one local simulation and cannot combine with -telemetry-out"},
		{[]string{"-j", "0", "-warm", "100", "-cycles", "200", "-json"}, "-j must be at least 1"},
	} {
		stdout, stderr, status := run(t, append([]string{"-cache", "off"}, c.flags...)...)
		if status != 2 || stderr != "delrepsim: "+c.want+"\n" || stdout != "" {
			t.Errorf("%v: exit status %d, stdout %q, stderr %q, want %q", c.flags, status, stdout, stderr, c.want)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Errorf("a rejected flag still wrote %s", out)
	}
}

// TestClogNarrativeGolden pins Figure 1's episode-by-episode narrative:
// what -clog prints after the report for 2DCON + blackscholes at the
// -quick record's windows (EXPERIMENTS.md, "Figure 1"), under the
// baseline and under Delegated Replies.
func TestClogNarrativeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 17 000-cycle simulations")
	}
	for _, scheme := range []string{"baseline", "delegated"} {
		t.Run(scheme, func(t *testing.T) {
			stdout, _ := delrepsim(t, "-cache", "off", "-gpu", "2DCON", "-cpu", "blackscholes", "-scheme", scheme,
				"-warm", "5000", "-cycles", "12000", "-metrics-window", "500", "-clog", "-clog-util", "0.5")
			golden := filepath.Join("testdata", "clog-2dcon-"+scheme+".golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if _, got, _ := strings.Cut(stdout, "\n\n"); got != string(want) {
				t.Errorf("-clog narrative differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}
