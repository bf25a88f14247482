package nn

import (
	"math"

	"acme/internal/tensor"
)

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	Clip         float64 // max gradient L2 norm per parameter tensor; 0 disables

	t      int
	state  map[*Param]moments
	borrow bool    // moments come from the scratch pool (BorrowAdam)
	leases []*slab // the slabs they were cut from, while borrowed
}

// moments is Adam's per-parameter state: the first and second moment
// estimates, each as long as the parameter.
type moments struct{ m, v []float64 }

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		Clip:  5,
		state: make(map[*Param]moments),
	}
}

// BorrowAdam is NewAdam for one call: its moments are borrowed from the
// scratch pool, zeroed, and go back on Release.
func BorrowAdam(lr float64) *Adam {
	a := NewAdam(lr)
	a.borrow = true
	return a
}

// Release gives back the moments of a BorrowAdam and leaves it a fresh
// optimizer, as NewAdam built it; on an Adam that owns its moments it
// does nothing.
func (a *Adam) Release() {
	if !a.borrow {
		return
	}
	for _, s := range a.leases {
		giveBack(s)
	}
	a.leases = a.leases[:0]
	clear(a.state)
	a.t = 0
}

// Step applies one update to every parameter and zeroes its gradient.
func (a *Adam) Step(params []*Param) {
	bc1, bc2 := a.begin(params)
	for _, p := range params {
		a.update(p, bc1, bc2)
	}
}

// begin counts a step over params and returns its bias corrections; the
// step itself is one update per parameter, and updates of different
// parameters may run concurrently.
func (a *Adam) begin(params []*Param) (bc1, bc2 float64) {
	a.t++
	a.meet(params)
	return 1 - math.Pow(a.Beta1, float64(a.t)), 1 - math.Pow(a.Beta2, float64(a.t))
}

// update applies the step begun with bias corrections bc1, bc2 to p and
// zeroes its gradient.
func (a *Adam) update(p *Param, bc1, bc2 float64) {
	g := p.Grad.Data
	clipNorm(g, a.Clip)
	st := a.state[p]
	tensor.AdamStep(p.Value.Data, g, st.m, st.v, a.Beta1, a.Beta2, bc1, bc2, a.LR, a.Eps)
	p.ZeroGrad()
}

// meet gives every parameter Step has not seen before its zeroed
// moments, all cut from one slab, allocated or (BorrowAdam) borrowed.
func (a *Adam) meet(params []*Param) {
	var need int
	for _, p := range params {
		if _, ok := a.state[p]; !ok {
			need += 2 * p.NumParams()
		}
	}
	if need == 0 {
		return
	}
	var buf []float64
	if a.borrow {
		s := borrowZeroed(need)
		a.leases = append(a.leases, s)
		buf = s.data
	} else {
		buf = make([]float64, need)
	}
	for _, p := range params {
		if _, ok := a.state[p]; ok {
			continue
		}
		n := p.NumParams()
		a.state[p] = moments{m: buf[:n:n], v: buf[n : 2*n : 2*n]}
		buf = buf[2*n:]
	}
}

func clipNorm(g []float64, maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	var s float64
	for _, v := range g {
		s += v * v
	}
	n := math.Sqrt(s)
	if n <= maxNorm {
		return
	}
	scale := maxNorm / n
	for i := range g {
		g[i] *= scale
	}
}
