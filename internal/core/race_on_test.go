//go:build race

package core

const raceDetector = true
