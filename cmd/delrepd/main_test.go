package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv makes the test binary behave as delrepd itself, so the
// tests below drive the real main() without a separate build.
const runMainEnv = "DELREPD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// A flag value that serve.Options or runner.Options would replace by
// its default stops the daemon before it listens, naming the flag and
// its range. The lowest accepted values get as far as listening, on a
// port that cannot be bound. A daemon that starts serving instead is
// killed after the timeout and fails its row.
func TestFlagRanges(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-j", "0"}, "-j must be at least 1"},
		{[]string{"-queue", "0"}, "-queue must be at least 1"},
		{[]string{"-client-inflight", "-1"}, "-client-inflight must be at least 0"},
		{[]string{"-cache-max", "0"}, "-cache-max must be at least 1 byte"},
		{[]string{"-j", "1", "-queue", "1", "-client-inflight", "0", "-addr", "127.0.0.1:99999"}, "listening failed"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-cache", "off"}, tc.args...)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			switch {
			case ctx.Err() != nil:
				t.Fatalf("delrepd %v was still serving after 10 s, want exit status 1 with %q", tc.args, tc.want)
			case cmd.ProcessState.ExitCode() != 1 || !strings.Contains(stderr.String(), tc.want):
				t.Fatalf("delrepd %v: %v, want exit status 1 with %q\n%s", tc.args, err, tc.want, stderr.String())
			}
		})
	}
}
