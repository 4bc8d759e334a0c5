package experiment

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Select is the figure driver's argument handling: "all" anywhere
// selects every figure, the rest run in paper order and once each, and
// any unknown name is an error before anything runs.
func TestSelect(t *testing.T) {
	every := make([]string, 0, len(Figures()))
	for _, f := range Figures() {
		every = append(every, f.Name)
	}
	for _, c := range []struct {
		args []string
		want []string // figure names in order; nil with err
		err  string
	}{
		{[]string{"fig10"}, []string{"fig10"}, ""},
		{[]string{"fig14", "fig5", "fig10", "fig5"}, []string{"fig5", "fig10", "fig14"}, ""},
		{[]string{"all"}, every, ""},
		{[]string{"fig10", "all"}, every, ""},
		{[]string{"all", "fig10", "all"}, every, ""},
		{[]string{"all", "bogus"}, nil, "unknown experiments: [bogus]"},
		{[]string{"fig10", "zeta", "bogus", "zeta"}, nil, "unknown experiments: [bogus zeta]"},
		{[]string{"list", "fig10"}, nil, "unknown experiments: [list]"},
		{[]string{"Fig10"}, nil, "unknown experiments: [Fig10]"},
	} {
		got, err := Select(c.args)
		var names []string
		for _, f := range got {
			names = append(names, f.Name)
		}
		if c.err != "" {
			if err == nil || err.Error() != c.err || got != nil {
				t.Errorf("Select(%q) = %v, %v; want no figures and %q", c.args, names, err, c.err)
			}
			continue
		}
		if err != nil || strings.Join(names, " ") != strings.Join(c.want, " ") {
			t.Errorf("Select(%q) = %v, %v; want %v", c.args, names, err, c.want)
		}
	}
}

// The usage line names every flag the driver declares, so a flag
// added to the set cannot go missing from it.
func TestUsageLine(t *testing.T) {
	fs := flag.NewFlagSet("expdriver", flag.ContinueOnError)
	fs.String("remote", "", "base URL")
	fs.SetOutput(io.Discard)
	Main(fs, []string{"-h"}, nil)
	want := "usage: expdriver [-cache string] [-cpuprofile string] [-cycles int] [-j int] [-memprofile string]" +
		" [-quick] [-remote string] [-seed int] [-warm int] <experiment>|all|list ..."
	if got := usageLine(fs); got != want {
		t.Errorf("usage line\n%s\nwant\n%s", got, want)
	}
}

// A flag out of range exits 2 before anything runs, instead of being
// replaced by a default; -warm and -cycles 0 keep the plan's windows.
func TestMainFlagRanges(t *testing.T) {
	for _, c := range []struct {
		args   []string
		status int
		stderr string
	}{
		{[]string{"-j", "0", "fig2"}, 2, "expdriver: -j must be at least 1\n"},
		{[]string{"-j", "-3", "fig2"}, 2, "expdriver: -j must be at least 1\n"},
		{[]string{"-warm", "-1", "fig2"}, 2, "expdriver: -warm and -cycles must be at least 0\n"},
		{[]string{"-cycles", "-1", "fig2"}, 2, "expdriver: -warm and -cycles must be at least 0\n"},
		{[]string{"-warm", "0", "-cycles", "0", "list"}, 0, ""},
	} {
		stdout, stderr := redirect(t, "stdout"), redirect(t, "stderr")
		fs := flag.NewFlagSet("expdriver", flag.ContinueOnError)
		status := Main(fs, append([]string{"-cache", "off"}, c.args...), nil)
		stdout()
		if got := stderr(); status != c.status || got != c.stderr {
			t.Errorf("%v: exit status %d, stderr %q; want %d, %q", c.args, status, got, c.status, c.stderr)
		}
	}
}

// redirect points os.Stdout or os.Stderr at a file until the returned
// function, which restores it and returns what was written.
func redirect(t *testing.T, name string) func() string {
	t.Helper()
	std := map[string]**os.File{"stdout": &os.Stdout, "stderr": &os.Stderr}[name]
	f, err := os.Create(filepath.Join(t.TempDir(), name))
	if err != nil {
		t.Fatal(err)
	}
	saved := *std
	*std = f
	return func() string {
		*std = saved
		f.Close()
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
}
