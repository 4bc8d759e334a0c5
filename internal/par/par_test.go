package par

import (
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryWorker(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		p := NewPool(n)
		if p.Size() != n {
			t.Fatalf("NewPool(%d).Size() = %d", n, p.Size())
		}
		var hits [8]int64
		for cycle := 0; cycle < 100; cycle++ {
			p.Run(func(w int) {
				atomic.AddInt64(&hits[w], 1)
			})
		}
		for w := 0; w < n; w++ {
			if hits[w] != 100 {
				t.Fatalf("n=%d: worker %d ran %d/100 times", n, w, hits[w])
			}
		}
		p.Close()
		p.Close() // idempotent
	}
}

func TestCutsEvenSplit(t *testing.T) {
	// Cuts is the classic i*n/k split, with no empty part.
	for _, tc := range []struct{ n, k int }{{10, 4}, {7, 3}, {5, 5}, {9, 1}, {3, 8}} {
		got := Cuts(tc.n, tc.k)
		if got[0] != 0 || got[len(got)-1] != tc.n {
			t.Fatalf("Cuts(%d,%d) = %v: bad end boundaries", tc.n, tc.k, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("Cuts(%d,%d) = %v: empty part at %d", tc.n, tc.k, got, i)
			}
		}
		if tc.k <= tc.n && len(got) != tc.k+1 {
			t.Fatalf("Cuts(%d,%d) = %v: want %d parts", tc.n, tc.k, got, tc.k)
		}
	}
}

func TestMatrixStaging(t *testing.T) {
	var m Matrix[int]
	m.Init(3)
	if m.Parts() != 3 {
		t.Fatalf("Parts() = %d", m.Parts())
	}
	now := int64(7)
	w := WriteParity(now)
	m.At(w, 0, 2).S.Push(10)
	m.At(w, 1, 2).S.Push(11)
	m.At(w, 2, 0).S.Push(12)

	// Next cycle drains what cycle `now` wrote.
	d := DrainParity(now + 1)
	if d != w {
		t.Fatalf("DrainParity(now+1)=%d != WriteParity(now)=%d", d, w)
	}
	var drained []int
	for src := 0; src < m.Parts(); src++ {
		c := m.At(d, src, 2)
		drained = append(drained, c.S.Items()...)
		c.S.Reset()
	}
	if len(drained) != 2 || drained[0] != 10 || drained[1] != 11 {
		t.Fatalf("drained %v, want [10 11] in src order", drained)
	}

	var rest []int
	m.Each(func(v int) { rest = append(rest, v) })
	if len(rest) != 1 || rest[0] != 12 {
		t.Fatalf("Each saw %v after drain, want [12]", rest)
	}
}
