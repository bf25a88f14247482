//go:build !race

package aggregate

const raceDetectorEnabled = false
