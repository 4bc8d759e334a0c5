package runner

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"delrep/internal/core"
)

// leaf is one int64 or float64 field of core.Results, by path.
type leaf struct {
	name string
	v    reflect.Value
}

// leaves lists every int64 and float64 field under v in declaration
// order, failing on any other kind: the entry format stores nothing
// else exactly, so a new kind must come with a new test case here.
func leaves(t *testing.T, v reflect.Value, name string) []leaf {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		var out []leaf
		for i := 0; i < v.NumField(); i++ {
			out = append(out, leaves(t, v.Field(i), name+"."+v.Type().Field(i).Name)...)
		}
		return out
	case reflect.Array:
		var out []leaf
		for i := 0; i < v.Len(); i++ {
			out = append(out, leaves(t, v.Index(i), fmt.Sprintf("%s[%d]", name, i))...)
		}
		return out
	case reflect.Int64, reflect.Float64:
		return []leaf{{name, v}}
	}
	t.Fatalf("%s is a %s; the entry test fills only int64 and float64", name, v.Kind())
	return nil
}

// bits is a leaf's stored bit pattern.
func (l leaf) bits() uint64 {
	if l.v.Kind() == reflect.Float64 {
		return math.Float64bits(l.v.Float())
	}
	return uint64(l.v.Int())
}

// edgeResults fills every field of a Results with a value an encoding
// can get wrong: NaNs with payloads (quiet and signalling), −0, ±Inf,
// MinInt64 and MaxInt64, interleaved with values unique to the field so
// that two swapped fields show as well.
func edgeResults(t *testing.T) core.Results {
	floats := []float64{
		math.Float64frombits(0x7ff8_0000_dead_beef),
		math.Float64frombits(0xfff0_0000_0000_0001),
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	}
	ints := []int64{math.MinInt64, math.MaxInt64}
	var res core.Results
	for i, l := range leaves(t, reflect.ValueOf(&res).Elem(), "Results") {
		switch {
		case l.v.Kind() == reflect.Float64 && i%2 == 0:
			l.v.SetFloat(floats[i/2%len(floats)])
		case l.v.Kind() == reflect.Float64:
			l.v.SetFloat(float64(i) + 0.25)
		case i%2 == 0:
			l.v.SetInt(ints[i/2%len(ints)])
		default:
			l.v.SetInt(-int64(i) << 40)
		}
	}
	return res
}

// A Results read back through Get and GetAddr is bit for bit the one
// Put stored, and the record's payload is exactly binary.Size of it: a
// field without a fixed size fails here rather than turning every Put
// into an error that the engine ignores.
func TestEntryBitExact(t *testing.T) {
	if size := binary.Size(core.Results{}); size <= 0 || size != resultsSize {
		t.Fatalf("binary.Size(core.Results{}) = %d (resultsSize %d): a field without a fixed size", size, resultsSize)
	}
	c := openTestCache(t)
	res := edgeResults(t)
	const digest = math.MaxUint64 - 1
	if err := c.Put("k", digest, res); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(c.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	if payload := len(b) - len(appendHeader(nil, "k")) - 8; payload != binary.Size(core.Results{}) {
		t.Errorf("encoded Results is %d bytes, binary.Size says %d", payload, binary.Size(core.Results{}))
	}

	want := leaves(t, reflect.ValueOf(&res).Elem(), "Results")
	for name, get := range map[string]func() (core.Results, uint64, bool){
		"Get":     func() (core.Results, uint64, bool) { return c.Get("k") },
		"GetAddr": func() (core.Results, uint64, bool) { return c.GetAddr(CacheAddr("k")) },
	} {
		got, d, ok := get()
		if !ok || d != digest {
			t.Fatalf("%s: ok=%v digest=%x, want a hit with %x", name, ok, d, uint64(digest))
		}
		for i, l := range leaves(t, reflect.ValueOf(&got).Elem(), "Results") {
			if l.bits() != want[i].bits() {
				t.Errorf("%s: %s = %#016x, stored %#016x", name, l.name, l.bits(), want[i].bits())
			}
		}
	}
}

// gobEntry is the shape of a run entry as builds before the binary
// record wrote it, through encoding/gob.
type gobEntry struct {
	Version string
	Key     string
	Digest  uint64
	Results core.Results
}

// An entry this build cannot read, a gob-era one or one written under
// another Results layout, is one corrupt miss per read by key and by
// address, still present to HasAddr, and repaired in place by the next
// Put.
func TestStaleEntryIsCorruptMiss(t *testing.T) {
	stale := map[string]func(t *testing.T, key string) []byte{
		"gob-era": func(t *testing.T, key string) []byte {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(gobEntry{Version, key, 7, core.Results{Cycles: 9}}); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		"other layout fingerprint": func(t *testing.T, key string) []byte {
			b, err := encodeEntry(key, 7, &core.Results{Cycles: 9})
			if err != nil {
				t.Fatal(err)
			}
			b[len(entryMagic)] ^= 1
			return b
		},
	}
	for name, entry := range stale {
		t.Run(name, func(t *testing.T) {
			c := openTestCache(t)
			const key = "HS|vips|k"
			if err := os.WriteFile(c.path(key), entry(t, key), 0o644); err != nil {
				t.Fatal(err)
			}
			for read, get := range map[string]func() bool{
				"Get":     func() bool { _, _, ok := c.Get(key); return ok },
				"GetAddr": func() bool { _, _, ok := c.GetAddr(CacheAddr(key)); return ok },
			} {
				before := c.Stats()
				if get() {
					t.Fatalf("%s served a stale entry", read)
				}
				after := c.Stats()
				d := CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses, Corrupt: after.Corrupt - before.Corrupt}
				if d != (CacheStats{Corrupt: 1}) {
					t.Errorf("%s counted %+v, want exactly one corrupt miss", read, d)
				}
			}
			if !c.HasAddr(CacheAddr(key)) {
				t.Error("HasAddr: a stale entry is still present")
			}
			if err := c.Put(key, 8, core.Results{Cycles: 10}); err != nil {
				t.Fatal(err)
			}
			if res, digest, ok := c.Get(key); !ok || digest != 8 || res.Cycles != 10 {
				t.Fatalf("repaired entry: ok=%v digest=%d res.Cycles=%d", ok, digest, res.Cycles)
			}
		})
	}
}

// The fingerprint sees every change that would shift or zero a stored
// value: a field moved, added, renamed or retyped, an array resized,
// and the same inside a nested struct.
func TestLayoutSeesEveryChange(t *testing.T) {
	type inner struct{ D int64 }
	base := string(layout(nil, reflect.TypeOf(struct {
		A int64
		B float64
		C [2]inner
	}{})))
	for i, v := range []any{
		struct {
			B float64
			A int64
			C [2]inner
		}{},
		struct {
			A int64
			B float64
			C [2]inner
			E int64
		}{},
		struct {
			A int64
			X float64
			C [2]inner
		}{},
		struct {
			A int64
			B int64
			C [2]inner
		}{},
		struct {
			A int64
			B float64
			C [3]inner
		}{},
		struct {
			A int64
			B float64
			C [2]struct{ D float64 }
		}{},
	} {
		if string(layout(nil, reflect.TypeOf(v))) == base {
			t.Errorf("variant %d has the base layout %s", i, base)
		}
	}
}

// A record cut anywhere, with bytes after it, or with its key length
// padded to an overlong varint is not an entry: only what encodeEntry
// writes decodes.
func TestMalformedEntryIsRejected(t *testing.T) {
	const key = "HS|vips|k"
	b, err := encodeEntry(key, 7, &core.Results{Cycles: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := decodeEntry(b); !ok {
		t.Fatal("whole entry rejected")
	}
	for n := 0; n < len(b); n++ {
		if _, _, _, ok := decodeEntry(b[:n]); ok {
			t.Fatalf("entry cut at %d of %d bytes accepted", n, len(b))
		}
	}
	if _, _, _, ok := decodeEntry(append(b, 0)); ok {
		t.Fatal("entry with a trailing byte accepted")
	}
	overlong := append(append([]byte{}, entryPrefix...), byte(len(key))|0x80, 0)
	if _, _, _, ok := decodeEntry(append(overlong, b[len(entryPrefix)+1:]...)); ok {
		t.Fatal("entry with an overlong key length accepted")
	}
}

// The decoder never panics, and whatever it accepts is exactly what
// encodeEntry writes for the values it returned. The committed corpus
// (testdata/fuzz/FuzzDecodeEntry) holds a valid entry, one cut inside
// the header, one cut inside Results and a gob-era entry; the seed
// added here is a valid entry of the current layout.
func FuzzDecodeEntry(f *testing.F) {
	b, err := encodeEntry("HS|vips|{Seed:1}", 42, &core.Results{Cycles: 9, GPUIPC: 1.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, b []byte) {
		key, digest, res, ok := decodeEntry(b)
		if !ok {
			return
		}
		again, err := encodeEntry(string(key), digest, &res)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, which re-encodes to %x (%v)", b, again, err)
		}
	})
}
