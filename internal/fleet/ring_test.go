package fleet

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingSequenceCoversAllWorkersOnce(t *testing.T) {
	workers := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	r := NewRing(workers)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := r.Sequence(key)
		if len(seq) != len(workers) {
			t.Fatalf("Sequence(%q) has %d entries, want %d: %v", key, len(seq), len(workers), seq)
		}
		seen := map[string]bool{}
		for _, w := range seq {
			if seen[w] {
				t.Fatalf("Sequence(%q) repeats %q: %v", key, w, seq)
			}
			seen[w] = true
		}
	}
}

func TestRingDeterministicAcrossConstructions(t *testing.T) {
	workers := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	r1 := NewRing(workers)
	// Input order must not matter: every coordinator instance (and a
	// restarted one) must route identically.
	r2 := NewRing([]string{workers[2], workers[0], workers[1]})
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a, b := r1.Sequence(key), r2.Sequence(key); !reflect.DeepEqual(a, b) {
			t.Fatalf("Sequence(%q) differs across constructions: %v vs %v", key, a, b)
		}
	}
}

func TestRingDistribution(t *testing.T) {
	workers := []string{"http://a:8080", "http://b:8080", "http://c:8080", "http://d:8080"}
	r := NewRing(workers)
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.Sequence(fmt.Sprintf("key-%d", i))[0]]++
	}
	// With 128 virtual nodes each shard should hold a reasonable slice;
	// the bound is loose (half the fair share) so the test pins gross
	// imbalance, not hash luck.
	for _, w := range workers {
		if counts[w] < n/len(workers)/2 {
			t.Errorf("worker %s owns only %d/%d keys", w, counts[w], n)
		}
	}
}

// Removing one worker (= skipping it at lookup, as the coordinator
// does for unhealthy workers) must not move keys between survivors:
// a key homed on a survivor keeps its home, and a key homed on the
// removed worker falls to its ring successor.
func TestRingRemovalStability(t *testing.T) {
	workers := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	r := NewRing(workers)
	down := workers[1]
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := r.Sequence(key)
		// The filtered view of the full sequence is the failover order
		// the coordinator actually uses.
		var filtered []string
		for _, w := range seq {
			if w != down {
				filtered = append(filtered, w)
			}
		}
		if seq[0] != down && filtered[0] != seq[0] {
			t.Fatalf("key %q moved off healthy home %s when %s went down", key, seq[0], down)
		}
		if seq[0] == down && filtered[0] != seq[1] {
			t.Fatalf("key %q did not fall to its ring successor: %v -> %v", key, seq, filtered)
		}
	}
}

func TestRingDedupAndEmpty(t *testing.T) {
	r := NewRing([]string{"http://a", "", "http://a", "http://b"})
	if got := r.Members(); !reflect.DeepEqual(got, []string{"http://a", "http://b"}) {
		t.Fatalf("Members() = %v", got)
	}
	if seq := NewRing(nil).Sequence("k"); seq != nil {
		t.Fatalf("empty ring Sequence = %v, want nil", seq)
	}
}
