//go:build !race

package tensor

// raceEnabled is false outside race builds; see simd_race_amd64.go.
const raceEnabled = false
