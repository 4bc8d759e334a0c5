//go:build !race

package core

const raceDetector = false
