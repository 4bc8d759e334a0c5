//go:build !race

package experiment

const raceDetector = false
