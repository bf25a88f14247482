//go:build race

package nas

// raceDetectorEnabled lets allocation bounds skip under -race, where
// sync.Pool drops a share of what it is given on purpose, so a pooled
// Scratch or gradient lease is sometimes allocated afresh.
const raceDetectorEnabled = true
