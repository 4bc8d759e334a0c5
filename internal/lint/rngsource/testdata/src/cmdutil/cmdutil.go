package cmdutil

import (
	"math/rand"
	"time"
)

// Elapsed uses wall-clock time in a package with no per-cycle entry
// point: allowed (drivers and daemons may time themselves).
func Elapsed(start time.Time) time.Duration {
	return time.Since(start)
}

// Stamp reads the clock outside the simulator: allowed.
func Stamp() int64 {
	return time.Now().Unix()
}

// ClockSeeded still derives an RNG seed from the wall clock: flagged
// everywhere, drivers included.
func ClockSeeded() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want `seeded from the wall clock`
}

// Global still uses the shared generator: flagged everywhere.
func Global() float64 {
	return rand.Float64() // want `global math/rand.Float64`
}
