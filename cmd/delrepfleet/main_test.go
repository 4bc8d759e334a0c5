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

// runMainEnv makes the test binary behave as delrepfleet itself, so
// the tests below drive the real main() without a separate build.
const runMainEnv = "DELREPFLEET_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// A flag value that fleet.Options would replace by its default stops
// the coordinator before it listens, naming the flag and its range.
// The lowest accepted values get as far as listening, on a port that
// cannot be bound. A coordinator that starts serving instead is killed
// after the timeout and fails its row.
func TestFlagRanges(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-retries", "0"}, "-retries must be at least 1"},
		{[]string{"-probe", "0"}, "-probe must be greater than 0"},
		{[]string{"-probe", "-1s"}, "-probe must be greater than 0"},
		{[]string{"-retries", "1", "-probe", "1ms", "-addr", "127.0.0.1:99999"}, "listening failed"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0", "-worker", "http://127.0.0.1:1"}, tc.args...)...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			switch {
			case ctx.Err() != nil:
				t.Fatalf("delrepfleet %v was still serving after 10 s, want exit status 1 with %q", tc.args, tc.want)
			case cmd.ProcessState.ExitCode() != 1 || !strings.Contains(stderr.String(), tc.want):
				t.Fatalf("delrepfleet %v: %v, want exit status 1 with %q\n%s", tc.args, err, tc.want, stderr.String())
			}
		})
	}
}
