//go:build race

package experiment

const raceDetector = true
