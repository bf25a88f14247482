//go:build race

package aggregate

// raceDetectorEnabled lets allocation counts skip under -race, which
// allocates on its own.
const raceDetectorEnabled = true
