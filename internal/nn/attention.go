package nn

import (
	"math"
	"math/rand"

	"acme/internal/tensor"
)

// MHSA is multi-head self-attention with per-head binary masks.
//
// Masked heads are skipped entirely: their output contribution is zero
// and no gradient flows through them. Masks are how ACME's width-scaled
// backbones remove unimportant heads (paper §III-B1).
//
// When RecordImportance is true the layer accumulates the Taylor
// first-order head importance of Eq. (8), Ih ≈ |Σ (∂F/∂O_h) ∘ O_h|,
// into HeadImportance during Backward.
type MHSA struct {
	DModel, NumHeads, HeadDim int

	Wq, Wk, Wv, Wo *Param
	Bo             *Param

	HeadMask         []bool
	RecordImportance bool
	HeadImportance   []float64

	// caches for backward
	x       *tensor.Matrix
	q, k, v tensor.Matrix
	attn    []tensor.Matrix // per head: seq × seq softmax weights
	headOut []tensor.Matrix // per head: seq × headDim
	concat  tensor.Matrix

	// Reused buffers (a Scratch's, under one). The layer runs one
	// forward/backward pair at a time and callers consume each result
	// before the next pass, so overwriting between passes is safe.
	// sQ/sK/sV/sDO/sDA/sDQ/sDK/sDV are per-head scratch reused across the
	// head loop.
	y, dx                          tensor.Matrix
	dq, dk, dv, dConcat            tensor.Matrix
	sQ, sK, sV, sDO, sDA, sDQ, sDK tensor.Matrix
	sDV                            tensor.Matrix
	rowDot                         []float64
	sc                             *Scratch

	rec *rec // set under a Pass: operands and head terms are recorded, not accumulated
}

// NewMHSA returns an MHSA layer with all heads active. dModel must be a
// multiple of numHeads.
func NewMHSA(name string, dModel, numHeads int, rng *rand.Rand) *MHSA {
	hd := dModel / numHeads
	m := &MHSA{
		DModel:   dModel,
		NumHeads: numHeads,
		HeadDim:  hd,
		Wq:       newParam(name+".wq", dModel, dModel, rng),
		Wk:       newParam(name+".wk", dModel, dModel, rng),
		Wv:       newParam(name+".wv", dModel, dModel, rng),
		Wo:       newParam(name+".wo", dModel, dModel, rng),
		Bo:       newParam(name+".bo", 1, dModel, rng),
		HeadMask: make([]bool, numHeads),
	}
	for i := range m.HeadMask {
		m.HeadMask[i] = true
	}
	m.Wq.InitXavier(rng, dModel, dModel)
	m.Wk.InitXavier(rng, dModel, dModel)
	m.Wv.InitXavier(rng, dModel, dModel)
	m.Wo.InitXavier(rng, dModel, dModel)
	m.HeadImportance = make([]float64, numHeads)
	m.attn = make([]tensor.Matrix, numHeads)
	m.headOut = make([]tensor.Matrix, numHeads)
	return m
}

// ActiveHeads returns the number of unmasked heads.
func (m *MHSA) ActiveHeads() int {
	var n int
	for _, on := range m.HeadMask {
		if on {
			n++
		}
	}
	return n
}

// headSliceInto copies the columns of mat belonging to head h into dst,
// reusing dst's storage when shapes allow.
func (m *MHSA) headSliceInto(dst, mat *tensor.Matrix, h int) *tensor.Matrix {
	dst = m.sc.Ensure(dst, mat.Rows, m.HeadDim)
	off := h * m.HeadDim
	for i := 0; i < mat.Rows; i++ {
		copy(dst.Row(i), mat.Row(i)[off:off+m.HeadDim])
	}
	return dst
}

// headSliceAdd adds src into the columns of dst belonging to head h.
func (m *MHSA) headSliceAdd(dst, src *tensor.Matrix, h int) {
	off := h * m.HeadDim
	for i := 0; i < src.Rows; i++ {
		drow := dst.Row(i)[off : off+m.HeadDim]
		for j, v := range src.Row(i) {
			drow[j] += v
		}
	}
}

// Forward computes masked multi-head self-attention over x (seq × d).
func (m *MHSA) Forward(x *tensor.Matrix) *tensor.Matrix {
	m.x = x
	q := m.sc.Ensure(&m.q, x.Rows, m.DModel)
	k := m.sc.Ensure(&m.k, x.Rows, m.DModel)
	v := m.sc.Ensure(&m.v, x.Rows, m.DModel)
	tensor.MatMulInto(q, x, m.Wq.Value)
	tensor.MatMulInto(k, x, m.Wk.Value)
	tensor.MatMulInto(v, x, m.Wv.Value)
	concat := m.sc.Zeroed(&m.concat, x.Rows, m.DModel)
	scale := 1 / math.Sqrt(float64(m.HeadDim))
	for h := 0; h < m.NumHeads; h++ {
		if !m.HeadMask[h] {
			continue
		}
		sQ := m.headSliceInto(&m.sQ, q, h)
		sK := m.headSliceInto(&m.sK, k, h)
		sV := m.headSliceInto(&m.sV, v, h)
		s := m.sc.Ensure(&m.attn[h], x.Rows, x.Rows)
		tensor.MatMulTransBInto(s, sQ, sK)
		s.Scale(scale)
		s.SoftmaxRows()
		oh := m.sc.Ensure(&m.headOut[h], x.Rows, m.HeadDim)
		tensor.MatMulInto(oh, s, sV)
		m.headSliceAdd(concat, oh, h)
	}
	y := m.sc.Ensure(&m.y, x.Rows, m.DModel)
	tensor.MatMulInto(y, concat, m.Wo.Value)
	y.AddRowVector(m.Bo.Value.Data)
	return y
}

// Backward accumulates parameter gradients (and head importances when
// enabled) and returns dx.
func (m *MHSA) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dConcat := m.sc.Ensure(&m.dConcat, dy.Rows, m.DModel)
	tensor.MatMulTransBInto(dConcat, dy, m.Wo.Value)

	dq := m.sc.Zeroed(&m.dq, m.x.Rows, m.DModel)
	dk := m.sc.Zeroed(&m.dk, m.x.Rows, m.DModel)
	dv := m.sc.Zeroed(&m.dv, m.x.Rows, m.DModel)
	scale := 1 / math.Sqrt(float64(m.HeadDim))
	for h := 0; h < m.NumHeads; h++ {
		if !m.HeadMask[h] {
			continue
		}
		dOh := m.headSliceInto(&m.sDO, dConcat, h)
		if m.RecordImportance {
			term := math.Abs(tensor.Dot(dOh.Data, m.headOut[h].Data))
			if m.rec != nil {
				m.rec.term(m.NumHeads)[h] = term
			} else {
				m.HeadImportance[h] += term
			}
		}
		a := &m.attn[h]
		sV := m.headSliceInto(&m.sV, &m.v, h)

		dA := m.sc.Ensure(&m.sDA, a.Rows, a.Cols)
		tensor.MatMulTransBInto(dA, dOh, sV)
		sDV := m.sc.Ensure(&m.sDV, m.x.Rows, m.HeadDim)
		tensor.MatMulTransAInto(sDV, a, dOh)
		// softmax backward, row-wise and in place:
		// dS = scale · A ∘ (dA - rowsum(A∘dA))
		m.rowDot = tensor.DotRows(a, dA, m.rowDot)
		for i := 0; i < a.Rows; i++ {
			arow := a.Row(i)
			darow := dA.Row(i)
			dot := m.rowDot[i]
			for j := range darow {
				darow[j] = arow[j] * (darow[j] - dot) * scale
			}
		}
		sQ := m.headSliceInto(&m.sQ, &m.q, h)
		sK := m.headSliceInto(&m.sK, &m.k, h)
		sDQ := m.sc.Ensure(&m.sDQ, a.Rows, m.HeadDim)
		tensor.MatMulInto(sDQ, dA, sK)
		sDK := m.sc.Ensure(&m.sDK, a.Rows, m.HeadDim)
		tensor.MatMulTransAInto(sDK, dA, sQ)
		m.headSliceAdd(dq, sDQ, h)
		m.headSliceAdd(dk, sDK, h)
		m.headSliceAdd(dv, sDV, h)
	}

	if m.rec != nil {
		m.rec.put(m.x, &m.concat, dq, dk, dv, dy)
	} else {
		tensor.MatMulTransAAcc(m.Wq.Grad, m.x, dq)
		tensor.MatMulTransAAcc(m.Wk.Grad, m.x, dk)
		tensor.MatMulTransAAcc(m.Wv.Grad, m.x, dv)
		tensor.MatMulTransAAcc(m.Wo.Grad, &m.concat, dy)
		dy.SumRowsInto(m.Bo.Grad.Data)
	}

	dx := m.sc.Ensure(&m.dx, m.x.Rows, m.DModel)
	tensor.MatMulTransBInto(dx, dq, m.Wq.Value)
	tensor.MatMulTransBAcc(dx, dk, m.Wk.Value)
	tensor.MatMulTransBAcc(dx, dv, m.Wv.Value)
	return dx
}

func (m *MHSA) setRec(r *rec) { m.rec = r }

// folds: one job for each of Wq, Wk and Wv, one for Wo with Bo, and the
// head terms. The records are x, concat, dq, dk, dv and dy.
func (m *MHSA) folds(jobs []foldJob) []foldJob {
	c := m.DModel * m.DModel
	return append(jobs, foldJob{params: [2]*Param{m.Wq}, cost: c}, foldJob{params: [2]*Param{m.Wk}, cost: c},
		foldJob{params: [2]*Param{m.Wv}, cost: c}, foldJob{params: [2]*Param{m.Wo, m.Bo}, cost: c}, foldJob{})
}

func (m *MHSA) fold(j int, r *rec) {
	switch j {
	case 0, 1, 2:
		w := [...]*Param{m.Wq, m.Wk, m.Wv}[j]
		tensor.MatMulTransAAcc(w.Grad, r.op(0), r.op(2+j))
	case 3:
		tensor.MatMulTransAAcc(m.Wo.Grad, r.op(1), r.op(5))
		r.op(5).SumRowsInto(m.Bo.Grad.Data)
	default:
		if !m.RecordImportance {
			return
		}
		for s := range r.n {
			terms := r.terms.at(s)
			for h, on := range m.HeadMask {
				if on {
					m.HeadImportance[h] += terms[h]
				}
			}
		}
	}
}

// ResetImportance zeroes accumulated head importances.
func (m *MHSA) ResetImportance() {
	for i := range m.HeadImportance {
		m.HeadImportance[i] = 0
	}
}

// Params implements Module.
func (m *MHSA) Params() []*Param {
	return []*Param{m.Wq, m.Wk, m.Wv, m.Wo, m.Bo}
}

// ActiveParamCount returns the parameter count attributable to unmasked
// heads (projection columns of masked heads are considered removed).
func (m *MHSA) ActiveParamCount() int {
	frac := float64(m.ActiveHeads()) / float64(m.NumHeads)
	qkv := 3 * m.DModel * m.DModel
	out := m.DModel*m.DModel + m.DModel
	return int(frac*float64(qkv)) + int(frac*float64(out))
}
