// Package core wires the GPU cores, CPU injectors, LLC slices, DRAM
// controllers and the two NoC networks into one cycle-driven System
// and steps them through one phased cycle (System.Tick: begin, the
// request network, the reply network, node phase, end). A System is
// fully deterministic per (Config, workload, seed) — same inputs, same
// StatsDigest: one goroutine owns a System for its whole lifetime, and
// parallel experiments run distinct Systems (see internal/runner).
// RunAudit is the entry point that packages a run's Results
// together with the digest used by the determinism audit and the
// on-disk result cache; RunAuditCtrl adds cancellation and progress.
package core
