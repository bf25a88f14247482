package wire

// Arena is a typed bump allocator for decode output. A Dec bound to an
// arena carves decoded slices out of reusable blocks instead of
// allocating per slice, so a steady-state decode loop (the edge
// folding one upload per device per round) runs at zero float-slice
// allocations.
//
// Lifetime contract: every slice carved from an arena is valid only
// until the next Reset. Callers that hold decoded values across
// messages (rather than folding them immediately) must copy first.
//
// With AliasInput set, []float32/[]float64 decode as direct aliases of
// the frame buffer on platforms where that is sound (little-endian,
// suitably aligned payload), skipping even the arena copy. The alias
// then shares the *frame's* lifetime: only enable it when the frame
// buffer outlives the decoded value's use — e.g. a transport message
// retained for the duration of the fold and released after
// (Message.Retain/Release). []byte fields always alias the frame
// buffer under the same contract, arena or not.
type Arena struct {
	// AliasInput permits zero-copy float-slice aliasing into the frame
	// buffer being decoded.
	AliasInput bool

	f64 []float64
	f32 []float32
	bo  []bool
	i   []int
}

// Reset recycles the arena: all previously carved slices become
// invalid and their space is reused by subsequent decodes.
func (a *Arena) Reset() {
	a.f64 = a.f64[:0]
	a.f32 = a.f32[:0]
	a.bo = a.bo[:0]
	a.i = a.i[:0]
}

const arenaBlock = 4096

// carve cuts an n-element slice from buf, growing buf's block when it
// is full. The returned slice is capacity-clamped so an append by the
// caller cannot stomp the next carve.
func carve[T any](buf []T, n int) (s, next []T) {
	if cap(buf)-len(buf) < n {
		c := n
		if c < arenaBlock {
			c = arenaBlock
		}
		// The old block stays referenced by slices already handed out;
		// it is reclaimed once those decoded values die.
		buf = make([]T, 0, c)
	}
	s = buf[len(buf) : len(buf)+n : len(buf)+n]
	return s, buf[:len(buf)+n]
}

func (a *Arena) carveF64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	s, next := carve(a.f64, n)
	a.f64 = next
	return s
}

func (a *Arena) carveF32(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	s, next := carve(a.f32, n)
	a.f32 = next
	return s
}

func (a *Arena) carveBools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	s, next := carve(a.bo, n)
	a.bo = next
	return s
}

func (a *Arena) carveInts(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	s, next := carve(a.i, n)
	a.i = next
	return s
}
