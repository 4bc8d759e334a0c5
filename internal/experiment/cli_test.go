package experiment

import (
	"flag"
	"io"
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
