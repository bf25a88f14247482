//go:build race

package wire

// raceEnabled lets allocation tests skip under -race, whose
// instrumentation allocates on its own.
const raceEnabled = true
