package wire

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Buffer is a pooled, reference-counted byte buffer: the one pool every
// encoded frame and every frame read off a socket comes from. Lease
// hands a Buffer out holding one reference; Retain adds one, and the
// Release that drops the last puts the Buffer back in the pool, after
// which neither B nor any slice aliasing it (a zero-copy decode) may be
// read. Forgetting Release is safe: the Buffer then falls to the garbage
// collector instead of the pool. The count lives in the Buffer itself,
// so passing a lease along allocates nothing.
type Buffer struct {
	// B is the frame. The holder of a fresh lease appends to it (it
	// starts empty) and may then only read it.
	B    []byte
	refs atomic.Int32
}

// maxPooled caps the capacity of a Buffer the pool takes back. A larger
// frame (a raw-data blob, or a corrupt length prefix short of the TCP
// limit) still works, but its bytes fall to the garbage collector
// instead of pinning megabytes in the pool.
const maxPooled = 4 << 20

var pool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 1024)} }}

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

// Lease takes an empty Buffer from the pool, holding one reference.
func Lease() *Buffer {
	b := pool.Get().(*Buffer)
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
		if cap(b.B) > maxPooled {
			b.B = nil
		} else {
			b.B = b.B[:0]
		}
		pool.Put(b)
	case n < 0:
		panic("wire: Buffer.Release without matching Retain")
	}
}

// EncodeLeased is Encode into a leased Buffer: the frame is the
// Buffer's B, and the caller owns the one reference. On error nothing
// stays leased. A pooled Buffer smaller than v's RawSize grows once, to
// that size and a margin for the encoding's tags and lengths, where
// append's step-by-step growth would allocate several times the frame.
func EncodeLeased(v any) (*Buffer, error) {
	b := Lease()
	if size := RawSize(v); size > cap(b.B) {
		b.B = slices.Grow(b.B, size+size/16+64)
	}
	out, err := AppendEncode(b.B, v)
	b.B = out
	if err != nil {
		b.Release()
		return nil, err
	}
	return b, nil
}

// CompressLeased is EntropyCompress for a leased frame: it returns a
// lease on the entropy frame and releases plain when the entropy frame
// is strictly smaller, and plain itself otherwise.
func CompressLeased(plain *Buffer) *Buffer {
	if !compressible(plain.B) {
		return plain
	}
	out := Lease()
	enc, ok := appendEntropy(slices.Grow(out.B, len(plain.B)), plain.B)
	out.B = enc
	if !ok {
		out.Release()
		return plain
	}
	plain.Release()
	return out
}
