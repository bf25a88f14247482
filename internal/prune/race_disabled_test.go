//go:build !race

package prune

const raceDetectorEnabled = false
