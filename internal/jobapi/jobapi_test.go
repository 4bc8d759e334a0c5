package jobapi

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// What WriteEvent writes, ReadEvents reads back: the same names and
// payloads in order, whatever the payload's text looks like, and a
// stray blank line between events is no event.
func TestEventsRoundTrip(t *testing.T) {
	type event struct {
		name string
		data any
	}
	sent := []event{
		{"status", JobView{ID: "j000001", Status: StatusRunning, Progress: &ProgressView{CyclesDone: 7, CyclesTotal: 9}}},
		{"progress", ProgressView{CyclesDone: 8, CyclesTotal: 9}},
		{"note", "data: not a frame\nevent: nor this\n\n"},
		{"", ""}, // an empty event: no name, an empty string
		{"status", JobView{ID: "j000001", Status: StatusDone, Error: "<&>"}},
	}
	var stream bytes.Buffer
	for i, ev := range sent {
		if err := WriteEvent(&stream, ev.name, ev.data); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			stream.WriteString("\n")
		}
	}
	var got []event
	err := ReadEvents(&stream, func(name string, data []byte) bool {
		// Decode into the type that was sent, to compare values.
		v := reflect.New(reflect.TypeOf(sent[min(len(got), len(sent)-1)].data))
		if err := json.Unmarshal(data, v.Interface()); err != nil {
			t.Errorf("event %d (%q): %v in %q", len(got), name, err, data)
		}
		got = append(got, event{name, v.Elem().Interface()})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sent) {
		t.Errorf("read back\n%+v\nwant\n%+v", got, sent)
	}

	// fn returning false stops the read at that event.
	n := 0
	stream.Reset()
	for _, ev := range sent {
		WriteEvent(&stream, ev.name, ev.data)
	}
	ReadEvents(&stream, func(string, []byte) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("read %d events after fn said stop at the second", n)
	}
}

// deps lists pkg and everything it imports, as `go list -deps` does.
func deps(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", pkg)
	cmd.Dir = "../.." // the module root
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps %s: %v", pkg, err)
	}
	set := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		set[p] = true
	}
	return set
}

// The dependency boundary: the client CLIs link neither server (a
// -remote run needs only this package, through internal/remote), expdriver
// links no network code at all (importing net makes a cgo binary
// linked against libc wherever a C compiler is found, and its start
// is most of a warm sweep), no command links encoding/gob (the disk
// cache writes fixed binary records), and this package is a leaf over
// the spec layer.
func TestDependencyBoundary(t *testing.T) {
	local := []string{"delrep/internal/serve", "delrep/internal/fleet", "net/http/pprof", "html/template"}
	for _, cmd := range []string{"expdriver", "expremote", "delrepsim", "delrepd", "delrepfleet"} {
		forbidden := []string{"encoding/gob"}
		switch cmd {
		case "expdriver":
			forbidden = append(append(forbidden, local...), "net", "runtime/cgo")
		case "expremote", "delrepsim":
			forbidden = append(forbidden, local...)
		}
		linked := deps(t, "delrep/cmd/"+cmd)
		for _, p := range forbidden {
			if linked[p] {
				t.Errorf("%s depends on %s", cmd, p)
			}
		}
	}
	spec := deps(t, "delrep/internal/simspec")
	for p := range deps(t, "delrep/internal/jobapi") {
		if strings.HasPrefix(p, "delrep/") && p != "delrep/internal/jobapi" && !spec[p] {
			t.Errorf("jobapi depends on %s, which simspec does not", p)
		}
	}
}
