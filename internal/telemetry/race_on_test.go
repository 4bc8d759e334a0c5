//go:build race

package telemetry

const raceDetector = true
