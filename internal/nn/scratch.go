package nn

import (
	"sync"
	"sync/atomic"

	"acme/internal/tensor"
)

// The scratch pool lends the working memory of one call — a Pass's
// record stacks and logits gradient, a BorrowAdam's moments, the
// gradients of BorrowGrads, the layer buffers of a Scratch — and takes
// it back when the call ends, so that the next call, on this goroutine
// or another, reuses it instead of allocating, and a model between
// calls holds only its weights. Lent counts the slabs that are out:
// every call that borrows gives everything back before it returns,
// errors included.
//
// Idle slabs wait in free lists by length, up to idleCap values in all;
// one given back past that is left to the collector. A sync.Pool would
// drop them at every second collection, and devices borrow in bursts a
// round apart with a collection or two in between: on customize-dense
// the borrowed slabs cost 11.8 MB of allocation per run from sync.Pools
// and 2.2 MB from the free lists.

// slab is one pooled block of float64s.
type slab struct{ data []float64 }

// idleCap bounds the values the free lists keep between calls (32 MiB),
// so that a burst of borrowing, such as a fleet's devices all starting
// at once, leaves at most that much behind.
const idleCap = 1 << 22

var (
	poolMu     sync.Mutex
	freeLists  = map[int][]*slab{} // idle slabs by length
	idleValues int                 // values in freeLists
	lent       atomic.Int64
)

// borrow returns a slab of n values from the pool, contents unspecified.
func borrow(n int) *slab {
	lent.Add(1)
	poolMu.Lock()
	if l := freeLists[n]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		freeLists[n], idleValues = l[:len(l)-1], idleValues-n
		poolMu.Unlock()
		return s
	}
	poolMu.Unlock()
	return &slab{data: make([]float64, n)}
}

// borrowZeroed is borrow with every value zero.
func borrowZeroed(n int) *slab {
	s := borrow(n)
	clear(s.data)
	return s
}

// giveBack returns s to the pool; its borrower must not touch it again.
func giveBack(s *slab) {
	lent.Add(-1)
	n := len(s.data)
	poolMu.Lock()
	if idleValues+n <= idleCap {
		freeLists[n], idleValues = append(freeLists[n], s), idleValues+n
	}
	poolMu.Unlock()
}

// Lent reports how many scratch slabs are borrowed and not yet given
// back: zero whenever no call that borrows is in progress.
func Lent() int { return int(lent.Load()) }

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
	chunks []*slab          // borrowed, the last one being cut
	free   []float64        // the uncut tail of the last chunk
	held   []*tensor.Matrix // every buffer cut, emptied at the end
}

// ScratchUser is a classifier or layer whose buffers a Scratch can
// lend: it takes them from s until UseScratch(nil), which drops any
// reference it kept into the call's data.
type ScratchUser interface {
	UseScratch(s *Scratch)
}

// scratchChunk is the length of the slabs a Scratch cuts buffers from:
// 64 KiB, a device header's buffers for one call in one or a few.
const scratchChunk = 1 << 13

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

// end takes s back from c and gives back every buffer cut from it.
func (s *Scratch) end(c Classifier) {
	if s == nil {
		return
	}
	c.(ScratchUser).UseScratch(nil)
	for _, m := range s.held {
		*m = tensor.Matrix{}
	}
	clear(s.held)
	s.held = s.held[:0]
	for _, ch := range s.chunks {
		giveBack(ch)
	}
	clear(s.chunks)
	s.chunks, s.free = s.chunks[:0], nil
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
	if len(s.free) < n {
		ch := borrow(max(n, scratchChunk))
		s.chunks = append(s.chunks, ch)
		s.free = ch.data
	}
	*m = tensor.Matrix{Rows: r, Cols: c, Data: s.free[:n:n]}
	s.free = s.free[n:]
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
