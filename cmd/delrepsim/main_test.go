package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
	os.Exit(m.Run())
}

// delrepsim runs the binary with short windows and returns its stdout
// and stderr.
func delrepsim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	args = append([]string{"-gpu", "NN", "-cpu", "vips", "-scheme", "delegated", "-warm", "200", "-cycles", "450"}, args...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("delrepsim %v: %v\n%s", args, err, errb.String())
	}
	return out.String(), errb.String()
}

// TestParallelJSONIdentical pins -parallel as a pure execution hint at
// the CLI: the canonical -json result is byte-identical at 1 and 4
// workers, for a topology that tiles (mesh) and one that only shards
// (crossbar: one router, one tile).
func TestParallelJSONIdentical(t *testing.T) {
	for _, topo := range []string{"mesh", "crossbar"} {
		one, _ := delrepsim(t, "-topo", topo, "-json", "-parallel", "1")
		four, stderr := delrepsim(t, "-topo", topo, "-json", "-parallel", "4")
		if one != four {
			t.Errorf("%s: -json output differs between -parallel 1 and -parallel 4:\n%s\nvs\n%s", topo, one, four)
		}
		if !strings.Contains(one, `"digest"`) {
			t.Errorf("%s: -json output carries no digest:\n%s", topo, one)
		}
		if stderr != "" {
			t.Errorf("%s: -parallel 4 fits the topology but stderr says:\n%s", topo, stderr)
		}
	}
}

// TestParallelClampNotice pins the one stderr notice for a run that
// executes at fewer workers than asked: the topology's limit, and the
// observer's (any of -metrics-out, -trace-out, -clog attaches one,
// which means one worker). The observer clamp used to happen after the
// notice was decided, so such runs said nothing.
func TestParallelClampNotice(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"fits", []string{"-parallel", "4"}, ""},
		{"unset", nil, ""},
		{"topology", []string{"-parallel", "100000"}, "-parallel 100000 clamped to "},
		{"metrics-out", []string{"-parallel", "4", "-metrics-out", metrics}, "-parallel 4 clamped to 1 effective workers"},
		{"clog", []string{"-parallel", "4", "-clog"}, "-parallel 4 clamped to 1 effective workers"},
	} {
		_, stderr := delrepsim(t, tc.args...)
		if tc.want == "" {
			if stderr != "" {
				t.Errorf("%s: unexpected stderr:\n%s", tc.name, stderr)
			}
			continue
		}
		if n := strings.Count(stderr, "clamped to"); n != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s: want exactly one notice containing %q, stderr:\n%s", tc.name, tc.want, stderr)
		}
	}
}
