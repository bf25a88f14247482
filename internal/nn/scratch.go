package nn

import (
	"sync"
	"sync/atomic"

	"acme/internal/tensor"
)

// The scratch pool lends the working memory of one call — a Pass's
// record stacks and logits gradient, a BorrowAdam's moments, the
// gradients of BorrowGrads, the layer buffers of a Scratch — and of one
// round of the importance exchange (a Lease's rows, a Slab per combiner
// accumulator), and takes it back when the call or round ends, so that
// the next one, on this goroutine or another, reuses it instead of
// allocating, and a model between calls holds only its weights. Lent
// counts the slabs that are out: every call that borrows gives
// everything back before it returns, errors included.
//
// Idle slabs wait in free lists by element type and length, up to
// idleCap bytes in all; one given back past that is left to the
// collector. A sync.Pool would drop them at every second collection,
// and devices borrow in bursts a round apart with a collection or two
// in between: on customize-dense the borrowed slabs cost 11.8 MB of
// allocation per run from sync.Pools and 2.2 MB from the free lists.

// slab is one pooled block of float64s (data) or of float32s (f32).
type slab struct {
	data []float64
	f32  []float32
	kept any // what its last Slab holder left with it (Slab.Release)
}

// slabKey names a free list: the element type and the length.
type slabKey struct {
	n   int
	f32 bool
}

func (s *slab) key() slabKey {
	if s.f32 != nil {
		return slabKey{len(s.f32), true}
	}
	return slabKey{len(s.data), false}
}

func (k slabKey) bytes() int {
	if k.f32 {
		return 4 * k.n
	}
	return 8 * k.n
}

// idleCap bounds the bytes the free lists keep between calls (32 MiB),
// so that a burst of borrowing, such as a fleet's devices all starting
// at once, leaves at most that much behind.
const idleCap = 32 << 20

var (
	poolMu    sync.Mutex
	freeLists = map[slabKey][]*slab{} // idle slabs
	idleBytes int                     // bytes in freeLists
	lent      atomic.Int64
)

// take returns an idle slab for k, or nil when there is none.
func take(k slabKey) *slab {
	lent.Add(1)
	poolMu.Lock()
	defer poolMu.Unlock()
	l := freeLists[k]
	if len(l) == 0 {
		return nil
	}
	s := l[len(l)-1]
	l[len(l)-1] = nil
	freeLists[k], idleBytes = l[:len(l)-1], idleBytes-k.bytes()
	return s
}

// borrow returns a slab of n float64s from the pool, contents
// unspecified.
func borrow(n int) *slab {
	if s := take(slabKey{n, false}); s != nil {
		return s
	}
	return &slab{data: make([]float64, n)}
}

// borrow32 is borrow for n float32s.
func borrow32(n int) *slab {
	if s := take(slabKey{n, true}); s != nil {
		return s
	}
	return &slab{f32: make([]float32, n)}
}

// borrowZeroed is borrow with every value zero.
func borrowZeroed(n int) *slab {
	s := borrow(n)
	clear(s.data)
	return s
}

// giveBack returns s, unless nil, to the pool; its borrower must not
// touch it again.
func giveBack(s *slab) {
	if s == nil {
		return
	}
	lent.Add(-1)
	k := s.key()
	poolMu.Lock()
	if idleBytes+k.bytes() <= idleCap {
		freeLists[k], idleBytes = append(freeLists[k], s), idleBytes+k.bytes()
	}
	poolMu.Unlock()
}

// Lent reports how many scratch slabs are borrowed and not yet given
// back: zero whenever no call or round that borrows is in progress.
func Lent() int { return int(lent.Load()) }

// A Lease lends the rows of one round of the importance exchange — the
// decoded layers of an upload that the edge's combiner reads until the
// round's result, a device's averaged set and its float32 wire copy, a
// decoded downlink — cut from pooled slabs, and gives them all back at
// Release; a Scratch cuts its layer buffers from one too. Contents of a
// row are unspecified. The zero Lease is ready to use and holds nothing
// after Release; on a nil *Lease every row is allocated instead, as
// with a nil *Scratch.
type Lease struct {
	chunks []*slab   // borrowed
	f64    []float64 // the uncut tail of the last float64 chunk
	f32    []float32 // the uncut tail of the last float32 chunk
}

// leaseChunk is the smallest slab a Lease borrows, in values (64 KiB of
// float64s): a device header's layer buffers for one call, or its
// importance set, fit in one or a few.
const leaseChunk = 1 << 13

// F64s cuts n float64s from the lease.
func (l *Lease) F64s(n int) []float64 {
	if l == nil {
		return make([]float64, n)
	}
	if len(l.f64) < n {
		ch := borrow(max(n, leaseChunk))
		l.chunks = append(l.chunks, ch)
		l.f64 = ch.data
	}
	s := l.f64[:n:n]
	l.f64 = l.f64[n:]
	return s
}

// F32s cuts n float32s from the lease.
func (l *Lease) F32s(n int) []float32 {
	if l == nil {
		return make([]float32, n)
	}
	if len(l.f32) < n {
		ch := borrow32(max(n, 2*leaseChunk))
		l.chunks = append(l.chunks, ch)
		l.f32 = ch.f32
	}
	s := l.f32[:n:n]
	l.f32 = l.f32[n:]
	return s
}

// Release gives back every slab the lease cut rows from; none of its
// rows may be touched again. Releasing an empty lease does nothing.
func (l *Lease) Release() {
	for _, ch := range l.chunks {
		giveBack(ch)
	}
	clear(l.chunks)
	l.chunks, l.f64, l.f32 = l.chunks[:0], nil, nil
}

// A Slab is one float64 slab lent on its own rather than for one call
// or round: whoever reads it last gives it back, as the round after a
// combine does with the combiner's accumulators (importance.Set). Its
// holder may leave a value with it at Release, and the slab's next
// borrower gets that value back: an importance.Set leaves its header,
// which so lives as long as the idle slab, collections or not. The zero
// Slab holds nothing.
type Slab struct{ s *slab }

// BorrowSlab lends n zeroed float64s, and the value the slab's last
// holder left with it (nil if none).
func BorrowSlab(n int) (Slab, []float64, any) {
	s := borrowZeroed(n)
	kept := s.kept
	s.kept = nil
	return Slab{s}, s.data, kept
}

// Release gives the slab back with kept for its next borrower and leaves
// b zero first, so that releasing it again does nothing and b may be
// part of kept; the storage must not be touched again.
func (b *Slab) Release(kept any) {
	s := b.s
	b.s = nil
	if s != nil {
		s.kept = kept
	}
	giveBack(s)
}

// GradLease is the gradient storage BorrowGrads lent one call.
type GradLease struct {
	params []*Param
	lease  *slab
	views  []tensor.Matrix // params[i].Grad is &views[i]
}

var gradLeases = sync.Pool{New: func() any { return new(GradLease) }}

// BorrowGrads points the Grad of every parameter in params at zeroed
// storage lent for one call: one slab, cut in params order. Release
// gives it back and leaves every Grad nil, so a model whose training
// borrows its gradients holds none between calls; a gradient storage a
// parameter had before is dropped. The list must not name a parameter
// twice.
func BorrowGrads(params []*Param) *GradLease {
	g := gradLeases.Get().(*GradLease)
	var n int
	for _, p := range params {
		n += p.NumParams()
	}
	g.params, g.lease = params, borrowZeroed(n)
	if cap(g.views) < len(params) {
		g.views = make([]tensor.Matrix, len(params))
	}
	g.views = g.views[:len(params)]
	buf := g.lease.data
	for i, p := range params {
		k := p.NumParams()
		g.views[i] = tensor.Matrix{Rows: p.Value.Rows, Cols: p.Value.Cols, Data: buf[:k:k]}
		p.Grad = &g.views[i]
		buf = buf[k:]
	}
	return g
}

// Zero clears every lent gradient in one pass over the slab.
func (g *GradLease) Zero() { clear(g.lease.data) }

// Release gives the storage back; every Grad it lent is nil again.
func (g *GradLease) Release() {
	for _, p := range g.params {
		p.Grad = nil
	}
	giveBack(g.lease)
	clear(g.views)
	g.params, g.lease = nil, nil
	gradLeases.Put(g)
}

// A Scratch lends a call's layer buffers — outputs, input gradients,
// im2col rows — to a classifier that takes them (ScratchUser): from
// UseScratch(s) until the call ends, its layers cut their buffers from
// s instead of keeping their own, and at the end every buffer goes back
// at once. Pass and Evaluate lend one; a layer used outside them keeps
// its buffers, as a nil *Scratch does.
type Scratch struct {
	rows Lease            // the buffers' storage
	held []*tensor.Matrix // every buffer cut, emptied at the end
}

// ScratchUser is a classifier or layer whose buffers a Scratch can
// lend: it takes them from s until UseScratch(nil), which drops any
// reference it kept into the call's data.
type ScratchUser interface {
	UseScratch(s *Scratch)
}

var scratches = sync.Pool{New: func() any { return new(Scratch) }}

// lendScratch hands c a Scratch for one call, or returns nil when c
// takes none.
func lendScratch(c Classifier) *Scratch {
	u, ok := c.(ScratchUser)
	if !ok {
		return nil
	}
	s := scratches.Get().(*Scratch)
	u.UseScratch(s)
	return s
}

// end takes s back from c, if c took it, and gives back every buffer
// cut from it.
func (s *Scratch) end(c Classifier) {
	if s == nil {
		return
	}
	if u, ok := c.(ScratchUser); ok {
		u.UseScratch(nil)
	}
	for _, m := range s.held {
		*m = tensor.Matrix{}
	}
	clear(s.held)
	s.held = s.held[:0]
	s.rows.Release()
	scratches.Put(s)
}

// Ensure points m at an r×c buffer and returns it: m itself when it has
// that shape already, else a buffer cut from s, or on a nil s one of
// its own (tensor.Ensure's idiom). Contents are unspecified.
func (s *Scratch) Ensure(m *tensor.Matrix, r, c int) *tensor.Matrix {
	if m.Rows == r && m.Cols == c && m.Data != nil {
		return m
	}
	n := r * c
	if s == nil {
		*m = tensor.Matrix{Rows: r, Cols: c, Data: make([]float64, n)}
		return m
	}
	*m = tensor.Matrix{Rows: r, Cols: c, Data: s.rows.F64s(n)}
	s.held = append(s.held, m)
	return m
}

// Zeroed is Ensure with every value zero: a buffer its caller
// accumulates into.
func (s *Scratch) Zeroed(m *tensor.Matrix, r, c int) *tensor.Matrix {
	m = s.Ensure(m, r, c)
	clear(m.Data)
	return m
}
