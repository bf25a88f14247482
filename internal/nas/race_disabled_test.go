//go:build !race

package nas

const raceDetectorEnabled = false
