// Package core wires the GPU cores, CPU injectors, LLC slices, DRAM
// controllers and the two NoC networks into one cycle-driven System
// and steps them through one phased cycle (System.Tick: begin, net
// compute, net commit, node phase, end) over a partition of the
// networks into tiles. A System is fully deterministic per (Config,
// workload, seed) — same inputs, same StatsDigest — regardless of how
// it executes: one goroutine owns a System for its whole lifetime and
// runs its node phase, parallel experiments run distinct Systems (see
// internal/runner), and SetParallel may grow the network partition
// from the one tile NewSystem builds (ticked inline) to many on a
// worker pool without moving a bit of the digest (see
// internal/noc/tile.go and DESIGN.md §11).
// RunAudit is the entry point that packages a run's Results
// together with the digest used by the determinism audit and the
// on-disk result cache; RunAuditCtrl adds cancellation and the
// parallelism hint.
package core
