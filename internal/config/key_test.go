package config

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// keyLeaf is one field AppendKey renders as a single value, by path.
type keyLeaf struct {
	name string
	v    reflect.Value
}

var layoutType = reflect.TypeOf(Layout{})

// keyLeaves lists every field under v that AppendKey renders as one
// value, in declaration order: ints, bools, the float and the uint8
// enums, descending into the sub-structs. The Layout is one leaf, since
// %+v renders it through its String method. Any other kind fails the
// test: a field of a new kind needs a new case in AppendKey and here.
func keyLeaves(t testing.TB, v reflect.Value, name string) []keyLeaf {
	t.Helper()
	if v.Type() == layoutType {
		return []keyLeaf{{name, v}}
	}
	switch v.Kind() {
	case reflect.Struct:
		var out []keyLeaf
		for i := 0; i < v.NumField(); i++ {
			out = append(out, keyLeaves(t, v.Field(i), name+"."+v.Type().Field(i).Name)...)
		}
		return out
	case reflect.Int, reflect.Int64, reflect.Bool, reflect.Float64, reflect.Uint8:
		return []keyLeaf{{name, v}}
	}
	t.Fatalf("%s is a %s: AppendKey renders no such field", name, v.Kind())
	return nil
}

// keyCases are the configurations AppendKey must render exactly as
// fmt's %+v does, by name.
func keyCases(t *testing.T) map[string]Config {
	cases := map[string]Config{"Default": Default(), "zero Config": {}}

	// Every leaf set to a value unique to it, so a field AppendKey skips
	// or two it swaps show as a difference.
	distinct := Default()
	for i, l := range keyLeaves(t, reflect.ValueOf(&distinct).Elem(), "Config") {
		switch l.v.Kind() {
		case reflect.Int, reflect.Int64:
			l.v.SetInt(int64(i+1) * 1_000_003 * int64(1-2*(i%2)))
		case reflect.Uint8:
			l.v.SetUint(uint64(i + 1))
		case reflect.Bool:
			l.v.SetBool(true)
		case reflect.Float64:
			l.v.SetFloat(float64(i) + 0.25)
		case reflect.Struct:
			l.v.Set(reflect.ValueOf(LayoutFromCounts("distinct", 5, 3, 4, 2)))
		}
	}
	cases["every leaf distinct"] = distinct

	// One leaf moved off Default at a time: bools and in-range enums
	// cannot all be distinct at once, but each one read from the wrong
	// field shows here.
	for i := range keyLeaves(t, reflect.ValueOf(Default()), "Config") {
		c := Default()
		l := keyLeaves(t, reflect.ValueOf(&c).Elem(), "Config")[i]
		switch l.v.Kind() {
		case reflect.Int, reflect.Int64:
			l.v.SetInt(l.v.Int() + 7)
		case reflect.Uint8:
			l.v.SetUint(l.v.Uint() + 1)
		case reflect.Bool:
			l.v.SetBool(!l.v.Bool())
		case reflect.Float64:
			l.v.SetFloat(0.75)
		case reflect.Struct:
			l.v.Set(reflect.ValueOf(LayoutD()))
		}
		cases["only "+l.name] = c
	}

	for _, th := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 1e-7} {
		c := Default()
		c.RP.PredThreshold = th
		cases[fmt.Sprintf("PredThreshold %v", th)] = c
	}

	outOfRange := Default()
	outOfRange.Scheme = Scheme(7)
	outOfRange.NoC.Topology = Topology(9)
	outOfRange.NoC.Routing = RoutingAlg(200)
	outOfRange.NoC.ReqOrder = DimOrder(5)
	outOfRange.GPU.Org = L1Org(3)
	outOfRange.GPU.CTASched = CTASched(9)
	cases["out-of-range enums"] = outOfRange

	for _, l := range append(AllLayouts(), ScaledBaseline(10, 10), ScaledBaseline(12, 12), Layout{}) {
		c := Default()
		c.Layout = l
		cases["layout "+l.Name] = c
	}
	return cases
}

// AppendKey writes byte for byte what fmt's %+v prints for a Config, so
// every run key, cache address and fleet routing key is what it was
// when the key was a Sprintf. A field added to Config or to a
// sub-struct without a line in AppendKey fails the "every leaf
// distinct" case.
func TestAppendKeyMatchesSprintf(t *testing.T) {
	for name, c := range keyCases(t) {
		if got, want := string(c.AppendKey(nil)), fmt.Sprintf("%+v", c); got != want {
			t.Errorf("%s: %s", name, keyDiff(got, want))
		}
	}
}

// keyDiff shows where two renderings first part, with some context.
func keyDiff(got, want string) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(0, i-40)
	return fmt.Sprintf("differs at byte %d:\n got …%q\nwant …%q", i, got[from:min(len(got), i+40)], want[from:min(len(want), i+40)])
}

// FuzzAppendKey checks AppendKey against %+v over the numeric fields,
// the enums (in range or not) and a bool. Its seed corpus is
// testdata/fuzz/FuzzAppendKey: Default's values and the edge values of
// each argument.
func FuzzAppendKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed, warm, measure int64, channelBytes, frqEntries, probeFanout int,
		predThreshold float64, scheme, topo, ctaSched uint8, sharedPhys bool) {
		c := Default()
		c.Seed, c.WarmupCycles, c.MeasureCycles = seed, warm, measure
		c.NoC.ChannelBytes = channelBytes
		c.GPU.FRQEntries = frqEntries
		c.RP.ProbeFanout = probeFanout
		c.RP.PredThreshold = predThreshold
		c.Scheme = Scheme(scheme)
		c.NoC.Topology = Topology(topo)
		c.GPU.CTASched = CTASched(ctaSched)
		c.NoC.SharedPhys = sharedPhys
		if got, want := string(c.AppendKey(nil)), fmt.Sprintf("%+v", c); got != want {
			t.Error(keyDiff(got, want))
		}
	})
}
