package core_test

import (
	"fmt"

	"delrep/internal/config"
	"delrep/internal/core"
)

// ExampleSystem_SetParallel runs one configuration on the partition
// NewSystem builds (one tile, inline) and then with its networks
// spread over four workers, and compares the end-state digests. The partition is a
// pure execution choice (DESIGN.md §11): the two-phase tick commits
// cross-tile events in a fixed order, so the digest — a hash of every
// counter, queue, and latency sampler — is bit-identical at any worker
// count, and callers may pick N purely for wall-clock time.
func ExampleSystem_SetParallel() {
	cfg := config.Default()
	cfg.Scheme = config.SchemeDelegatedReplies
	cfg.WarmupCycles, cfg.MeasureCycles = 300, 800 // example-sized windows

	inline := core.NewSystem(cfg, "HS", "vips")
	inline.RunWorkload()

	tiled := core.NewSystem(cfg, "HS", "vips")
	tiled.SetParallel(4) // must precede the first cycle
	defer tiled.Close()  // release the worker pool
	tiled.RunWorkload()

	fmt.Printf("tiled across %d workers\n", tiled.Parallel())
	fmt.Printf("digests identical: %v\n", inline.StatsDigest() == tiled.StatsDigest())
	// Output:
	// tiled across 4 workers
	// digests identical: true
}
