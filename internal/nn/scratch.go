package nn

import (
	"sync"
	"sync/atomic"
)

// The scratch pool lends the working memory of one call — a Pass's
// record stacks and logits gradient, a BorrowAdam's moments — and takes
// it back when the call ends, so that the next call, on this goroutine
// or another, reuses it instead of allocating. Slabs are pooled by
// length in sync.Pools, so the collector may still drop an idle one.
// Lent counts the slabs that are out: every call that borrows gives
// everything back before it returns, errors included.

// slab is one pooled block of float64s. The pools hold the *slab, so
// handing it back allocates nothing.
type slab struct{ data []float64 }

var (
	poolsMu sync.Mutex
	pools   = map[int]*sync.Pool{} // by slab length
	lent    atomic.Int64
)

// borrow returns a slab of n values from the pool, contents unspecified.
func borrow(n int) *slab {
	lent.Add(1)
	if s, ok := poolOf(n).Get().(*slab); ok {
		return s
	}
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
	poolOf(len(s.data)).Put(s)
	lent.Add(-1)
}

func poolOf(n int) *sync.Pool {
	poolsMu.Lock()
	p, ok := pools[n]
	if !ok {
		p = new(sync.Pool)
		pools[n] = p
	}
	poolsMu.Unlock()
	return p
}

// Lent reports how many scratch slabs are borrowed and not yet given
// back: zero whenever no Pass or BorrowAdam is in use.
func Lent() int { return int(lent.Load()) }
