package rng

import (
	"math/rand"
	"time"
)

// node gives the package a per-cycle entry point, which is what makes
// it a simulator package for the bare time.Now rule.
type node struct{ cycle int64 }

func (n *node) Tick() { n.cycle++ }

// jitter draws from the global, process-wide generator: unseeded.
func jitter() int {
	return rand.Intn(4) // want `global math/rand.Intn`
}

// shuffle also hits the global generator.
func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand.Shuffle`
}

// clockSeed derives the seed from the wall clock; two runs can never
// be compared. Both the time.Now-in-simulator rule and the wall-clock
// seed rule fire.
func clockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `seeded from the wall clock` `time.Now in simulator package`
}

// now is wall-clock time in a simulator package: flagged on its own.
func now() int64 {
	return time.Now().Unix() // want `time.Now in simulator package`
}

// good injects a config-seeded generator: the sanctioned pattern.
func good(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// goodUse draws from an injected generator: fine anywhere.
func goodUse(r *rand.Rand) int {
	return r.Intn(4)
}
