//go:build !race

package telemetry

const raceDetector = false
