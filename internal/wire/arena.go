package wire

// Arena is a typed bump allocator for decode output. A decode bound to an
// arena carves decoded slices out of reusable blocks instead of
// allocating per slice, so a steady-state decode loop (the edge
// folding one upload per device per round) runs at zero float-slice
// allocations.
//
// Lifetime contract: every slice carved from an arena is valid only
// until the next Reset. Callers that hold decoded values across
// messages (rather than folding them immediately) must copy first.
//
// With AliasInput set, []float32 decodes as a direct alias of the frame
// buffer on platforms where that is sound (little-endian, suitably
// aligned payload), skipping even the arena copy; []float64 is always
// copied. The alias then shares the *frame's* lifetime: only enable it
// when the frame buffer outlives the decoded value's use — e.g. a
// transport message retained for the duration of the fold and released
// after (Message.Retain/Release). []byte fields always alias the frame
// buffer under the same contract, arena or not.
type Arena struct {
	// AliasInput permits zero-copy float32-slice aliasing into the
	// frame buffer being decoded.
	AliasInput bool

	f64 region[float64]
	f32 region[float32]
	bo  region[bool]
	i   region[int]
}

// Reset recycles the arena: all previously carved slices become
// invalid and their space is reused by subsequent decodes. The arena
// remembers, per element type, the most one Reset-to-Reset cycle has
// carved: once a cycle needed more than the block holds, the next
// cycle's first carve takes one block of that size, so from then on a
// decode of the same shape carves without allocating.
func (a *Arena) Reset() {
	a.f64.reset()
	a.f32.reset()
	a.bo.reset()
	a.i.reset()
}

// arenaBlock is the smallest block an arena allocates, in elements.
const arenaBlock = 4096

// region is one element type's blocks: buf is the block being carved
// (its length the part carved), need what this cycle has carved in all,
// high the most any cycle has.
type region[T any] struct {
	buf        []T
	need, high int
}

// carve cuts an n-element slice, moving to a fresh block, big enough
// for what is left of the largest cycle seen, when the current one is
// full. The returned slice is capacity-clamped so an append by the
// caller cannot stomp the next carve.
func (r *region[T]) carve(n int) []T {
	if cap(r.buf)-len(r.buf) < n {
		// The old block stays referenced by slices already handed out
		// until the next Reset.
		r.buf = make([]T, 0, max(n, r.high-r.need, arenaBlock))
	}
	r.need += n
	s := r.buf[len(r.buf) : len(r.buf)+n : len(r.buf)+n]
	r.buf = r.buf[:len(r.buf)+n]
	return s
}

// reset drops a block too small for the largest cycle seen, so that the
// next carve takes one that holds a whole cycle.
func (r *region[T]) reset() {
	r.high = max(r.high, r.need)
	if cap(r.buf) < r.high {
		r.buf = nil
	}
	r.buf, r.need = r.buf[:0], 0
}

func (a *Arena) carveF64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.f64.carve(n)
}

func (a *Arena) carveF32(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	return a.f32.carve(n)
}

func (a *Arena) carveBools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	return a.bo.carve(n)
}

func (a *Arena) carveInts(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.i.carve(n)
}
