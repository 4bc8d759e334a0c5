package main

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"delrep/internal/runner"
	"delrep/internal/serve"
)

// runMainEnv makes the test binary behave as expremote itself.
const runMainEnv = "EXPREMOTE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// A -remote sweep whose daemon starts draining after the first run:
// the other runs fail with the daemon's 503, the driver exits 1, and
// the failed-run report names each failed spec and the answer.
func TestRemoteSweepDrainingDaemon(t *testing.T) {
	daemon := serve.New(serve.Options{Engine: runner.New(runner.Options{Workers: 1})})
	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && posts.Add(1) == 2 {
			ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
			defer cancel()
			if err := daemon.Shutdown(ctx); err != nil {
				t.Error(err)
			}
		}
		daemon.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	cmd := exec.Command(os.Args[0], "-quick", "-warm", "200", "-cycles", "400", "-j", "1", "-cache", "off", "-remote", srv.URL, "fig2")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("expdriver exited with %v, want status 1\n%s", err, &stderr)
	}
	var failed []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "  fig2: ") && strings.Contains(line, " Baseline seed=1 (key ") {
			failed = append(failed, line)
		}
	}
	if !strings.Contains(stderr.String(), "expdriver: 2 simulation(s) failed:") || len(failed) != 2 {
		t.Fatalf("want two failed fig2 runs reported:\n%s", &stderr)
	}
	for _, line := range failed {
		if !strings.Contains(line, "submit answered 503: server is draining") {
			t.Errorf("failed run does not name the daemon's answer: %s", line)
		}
	}
}
