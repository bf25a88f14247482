//go:build race

package tensor

// raceEnabled keeps race builds on the pure-Go kernels: the race
// detector does not instrument assembly, so writes made by the AVX2
// kernels (a pooled worker's row block, a replica fold into Param.Grad)
// would be invisible to it.
const raceEnabled = true
