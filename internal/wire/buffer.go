package wire

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Buffer is a pooled, reference-counted byte buffer: the one pool every
// encoded frame, every frame read off a socket and every packed round
// of a delta encoder comes from. Lease hands a Buffer out holding one
// reference; Retain adds one, and the Release that drops the last puts
// the Buffer back in the pool, after which neither B nor any slice
// aliasing it (a zero-copy decode) may be read. Forgetting Release is
// safe: the Buffer then falls to the garbage collector instead of the
// pool. The count lives in the Buffer itself, so passing a lease along
// allocates nothing.
//
// The pool keeps its Buffers in size classes, four to each power of two
// from minClass to maxPooled bytes (256, 320, 384, 448, 512, 640, …),
// and a lease draws from the class of the size its caller asks for: a
// control frame of a few bytes never holds a Buffer an upload grew to
// tens of kilobytes, a large encode does not draw a small Buffer and
// grow it, and no Buffer is more than a quarter larger than its class
// needs.
type Buffer struct {
	// B is the frame. The holder of a fresh lease appends to it (it
	// starts empty) and may then only read it.
	B     []byte
	refs  atomic.Int32
	class int // the size class it returns to
}

// minClass is the smallest size class, in bytes, and maxPooled the
// largest: the capacity cap of a Buffer the pool takes back. A larger
// frame (a raw-data blob, or a corrupt length prefix short of the TCP
// limit) still works, but its bytes fall to the garbage collector
// instead of pinning megabytes in the pool.
const (
	minClass  = 1 << 8
	maxPooled = 4 << 20
	classes   = 57 // classSize(classes-1) == maxPooled
)

// classSize is the room, in bytes, of size class c: minClass times
// 1, 1.25, 1.5 or 1.75 times a power of two.
func classSize(c int) int { return (4 + c%4) << (c/4 + 6) }

// pools holds the idle Buffers of each size class; class c's have room
// for at least classSize(c) bytes, and less than classSize(c+1).
var pools [classes]sync.Pool

func init() {
	for c := range pools {
		pools[c].New = func() any { return &Buffer{B: make([]byte, 0, classSize(c)), class: c} }
	}
}

// classOf is the smallest class with room for n bytes (the largest for
// an n past maxPooled).
func classOf(n int) int {
	c := 0
	for c < classes-1 && classSize(c) < n {
		c++
	}
	return c
}

// leased counts the Buffers leased and not yet finally released,
// process-wide. Only Lease and Release change it.
var leased atomic.Int64

// Leased reports how many Buffers are leased and not yet finally
// released, process-wide: read before and after a run, the difference
// is what the run left unreleased.
func Leased() int64 { return leased.Load() }

// scrub, when set, is handed every Buffer's bytes at its final Release,
// before the Buffer returns to the pool. It is nil in production.
var scrub atomic.Pointer[func([]byte)]

// SetScrub is a test seam: from now on, f is handed every Buffer's
// bytes at its final Release, before the Buffer returns to the pool,
// so that a test can overwrite released frames in place and a read past
// a Release sees different bytes instead of stale ones. SetScrub(nil)
// turns it off. Production code never calls it.
func SetScrub(f func([]byte)) {
	if f == nil {
		scrub.Store(nil)
		return
	}
	scrub.Store(&f)
}

// Lease takes an empty Buffer with room for n bytes from the pool,
// holding one reference. The room is a promise for an n up to
// maxPooled; past that, the first append grows it.
func Lease(n int) *Buffer {
	c := classOf(n)
	b := pools[c].Get().(*Buffer)
	if cap(b.B) < n && n <= maxPooled {
		// Its last holder dropped B, or it came back too big to pool.
		b.B = make([]byte, 0, classSize(c))
	}
	b.refs.Store(1)
	leased.Add(1)
	return b
}

// Retain adds a reference to b. Only a holder of a reference may add
// one.
func (b *Buffer) Retain() {
	if b.refs.Add(1) <= 1 {
		panic("wire: Buffer.Retain after its final Release")
	}
}

// Release drops one reference to b; the last returns b to the pool.
// Releasing more times than leased and retained is a bug and panics.
func (b *Buffer) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		leased.Add(-1)
		if f := scrub.Load(); f != nil {
			(*f)(b.B)
		}
		switch n := cap(b.B); {
		case n > maxPooled:
			b.B = nil
		case b.class < classes-1 && n >= classSize(b.class+1):
			// A Buffer grown past its class moves up to the largest
			// class its capacity covers.
			b.B, b.class = b.B[:0], classOf(n)
			if classSize(b.class) > n {
				b.class--
			}
		default:
			b.B = b.B[:0]
		}
		pools[b.class].Put(b)
	case n < 0:
		panic("wire: Buffer.Release without matching Retain")
	}
}

// EncodeLeased is Encode into a leased Buffer: the frame is the
// Buffer's B, and the caller owns the one reference. It also returns
// v's RawSize, which it sizes the Buffer by: a pooled Buffer smaller
// than that grows once, to the size and a margin for the encoding's
// tags and lengths, where append's step-by-step growth would allocate
// several times the frame. On error nothing stays leased.
func EncodeLeased(v any) (*Buffer, int, error) {
	s, err := walk(Fields{mode: sizing}, v)
	if err != nil {
		return nil, 0, err
	}
	size := s.raw + s.raw/16 + 64
	b := Lease(size)
	if s.raw > cap(b.B) {
		b.B = slices.Grow(b.B, size)
	}
	e, _ := walk(Fields{mode: encoding, b: append(b.B, Version)}, v)
	b.B = e.b
	return b, s.raw, nil
}

// CompressLeased is EntropyCompress for a leased frame: it returns a
// lease on the entropy frame and releases plain when the entropy frame
// is strictly smaller, and plain itself otherwise.
func CompressLeased(plain *Buffer) *Buffer {
	if !compressible(plain.B) {
		return plain
	}
	out := Lease(len(plain.B))
	enc, ok := appendEntropy(slices.Grow(out.B, len(plain.B)), plain.B)
	out.B = enc
	if !ok {
		out.Release()
		return plain
	}
	plain.Release()
	return out
}
