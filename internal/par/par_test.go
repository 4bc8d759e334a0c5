package par

import (
	"runtime"
	"testing"
)

func TestPoolRunsEveryWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, n := range []int{1, 2, 3, 8} {
		p := NewPool(n)
		if p.Size() != n {
			t.Fatalf("NewPool(%d).Size() = %d", n, p.Size())
		}
		var hits [8]int64
		for cycle := 0; cycle < 100; cycle++ {
			p.Run(func(w int) { hits[w]++ })
		}
		for w := 0; w < n; w++ {
			if hits[w] != 100 {
				t.Fatalf("n=%d: worker %d ran %d/100 times", n, w, hits[w])
			}
		}
		if got := runtime.NumGoroutine(); got != before {
			t.Fatalf("n=%d: %d goroutines with the pool alive, %d before", n, got, before)
		}
		p.Close()
		p.Close() // idempotent
	}
}
