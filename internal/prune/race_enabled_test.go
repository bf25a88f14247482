//go:build race

package prune

// raceDetectorEnabled lets allocation bounds skip under -race, where
// sync.Pool drops a share of what it is given on purpose, so a pooled
// gradient lease is sometimes allocated afresh.
const raceDetectorEnabled = true
