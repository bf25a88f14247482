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
	q, k, v *tensor.Matrix
	attn    []*tensor.Matrix // per head: seq × seq softmax weights
	headOut []*tensor.Matrix // per head: seq × headDim
	concat  *tensor.Matrix

	// Reused buffers. The layer runs one forward/backward pair at a
	// time and callers consume each result before the next pass, so
	// overwriting between passes is safe. sQ/sK/sV/sDO/sDA/sDQ/sDK/sDV
	// are per-head scratch reused across the head loop.
	y, dx                          *tensor.Matrix
	dq, dk, dv, dConcat            *tensor.Matrix
	sQ, sK, sV, sDO, sDA, sDQ, sDK *tensor.Matrix
	sDV                            *tensor.Matrix
	rowDot                         []float64

	rec *rec // set on a replica's copy (see team): operands and head terms are recorded, not accumulated
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
	m.attn = make([]*tensor.Matrix, numHeads)
	m.headOut = make([]*tensor.Matrix, numHeads)
	return m
}

// replica returns a copy of m over the same parameters and head mask
// that records into r.
func (m *MHSA) replica(r *rec) *MHSA {
	return &MHSA{
		DModel: m.DModel, NumHeads: m.NumHeads, HeadDim: m.HeadDim,
		Wq: m.Wq, Wk: m.Wk, Wv: m.Wv, Wo: m.Wo, Bo: m.Bo,
		HeadMask: m.HeadMask,
		attn:     make([]*tensor.Matrix, m.NumHeads),
		headOut:  make([]*tensor.Matrix, m.NumHeads),
		rec:      r,
	}
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
	dst = tensor.Ensure(dst, mat.Rows, m.HeadDim)
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
	m.q = tensor.Ensure(m.q, x.Rows, m.DModel)
	m.k = tensor.Ensure(m.k, x.Rows, m.DModel)
	m.v = tensor.Ensure(m.v, x.Rows, m.DModel)
	tensor.MatMulInto(m.q, x, m.Wq.Value)
	tensor.MatMulInto(m.k, x, m.Wk.Value)
	tensor.MatMulInto(m.v, x, m.Wv.Value)
	m.concat = tensor.Ensure(m.concat, x.Rows, m.DModel)
	m.concat.Zero()
	scale := 1 / math.Sqrt(float64(m.HeadDim))
	for h := 0; h < m.NumHeads; h++ {
		if !m.HeadMask[h] {
			continue
		}
		m.sQ = m.headSliceInto(m.sQ, m.q, h)
		m.sK = m.headSliceInto(m.sK, m.k, h)
		m.sV = m.headSliceInto(m.sV, m.v, h)
		s := tensor.Ensure(m.attn[h], x.Rows, x.Rows)
		m.attn[h] = s
		tensor.MatMulTransBInto(s, m.sQ, m.sK)
		s.Scale(scale)
		s.SoftmaxRows()
		oh := tensor.Ensure(m.headOut[h], x.Rows, m.HeadDim)
		m.headOut[h] = oh
		tensor.MatMulInto(oh, s, m.sV)
		m.headSliceAdd(m.concat, oh, h)
	}
	m.y = tensor.Ensure(m.y, x.Rows, m.DModel)
	tensor.MatMulInto(m.y, m.concat, m.Wo.Value)
	m.y.AddRowVector(m.Bo.Value.Data)
	return m.y
}

// Backward accumulates parameter gradients (and head importances when
// enabled) and returns dx.
func (m *MHSA) Backward(dy *tensor.Matrix) *tensor.Matrix {
	m.dConcat = tensor.Ensure(m.dConcat, dy.Rows, m.DModel)
	tensor.MatMulTransBInto(m.dConcat, dy, m.Wo.Value)

	m.dq = tensor.Ensure(m.dq, m.x.Rows, m.DModel)
	m.dk = tensor.Ensure(m.dk, m.x.Rows, m.DModel)
	m.dv = tensor.Ensure(m.dv, m.x.Rows, m.DModel)
	m.dq.Zero()
	m.dk.Zero()
	m.dv.Zero()
	scale := 1 / math.Sqrt(float64(m.HeadDim))
	for h := 0; h < m.NumHeads; h++ {
		if !m.HeadMask[h] {
			continue
		}
		dOh := m.headSliceInto(m.sDO, m.dConcat, h)
		m.sDO = dOh
		if m.RecordImportance {
			term := math.Abs(tensor.Dot(dOh.Data, m.headOut[h].Data))
			if m.rec != nil {
				m.rec.term()[h] = term
			} else {
				m.HeadImportance[h] += term
			}
		}
		a := m.attn[h]
		m.sV = m.headSliceInto(m.sV, m.v, h)

		dA := tensor.Ensure(m.sDA, a.Rows, a.Cols)
		m.sDA = dA
		tensor.MatMulTransBInto(dA, dOh, m.sV)
		m.sDV = tensor.Ensure(m.sDV, m.x.Rows, m.HeadDim)
		tensor.MatMulTransAInto(m.sDV, a, dOh)
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
		m.sQ = m.headSliceInto(m.sQ, m.q, h)
		m.sK = m.headSliceInto(m.sK, m.k, h)
		m.sDQ = tensor.Ensure(m.sDQ, a.Rows, m.HeadDim)
		tensor.MatMulInto(m.sDQ, dA, m.sK)
		m.sDK = tensor.Ensure(m.sDK, a.Rows, m.HeadDim)
		tensor.MatMulTransAInto(m.sDK, dA, m.sQ)
		m.headSliceAdd(m.dq, m.sDQ, h)
		m.headSliceAdd(m.dk, m.sDK, h)
		m.headSliceAdd(m.dv, m.sDV, h)
	}

	if m.rec != nil {
		m.rec.put(m.x, m.concat, m.dq, m.dk, m.dv, dy)
	} else {
		tensor.MatMulTransAAcc(m.Wq.Grad, m.x, m.dq)
		tensor.MatMulTransAAcc(m.Wk.Grad, m.x, m.dk)
		tensor.MatMulTransAAcc(m.Wv.Grad, m.x, m.dv)
		tensor.MatMulTransAAcc(m.Wo.Grad, m.concat, dy)
		dy.SumRowsInto(m.Bo.Grad.Data)
	}

	m.dx = tensor.Ensure(m.dx, m.x.Rows, m.DModel)
	tensor.MatMulTransBInto(m.dx, m.dq, m.Wq.Value)
	tensor.MatMulTransBAcc(m.dx, m.dk, m.Wk.Value)
	tensor.MatMulTransBAcc(m.dx, m.dv, m.Wv.Value)
	return m.dx
}

// BackwardParams implements SeqOp. Only the last three products of
// Backward are input-gradient work, so the full Backward runs.
func (m *MHSA) BackwardParams(dy *tensor.Matrix) { m.Backward(dy) }

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
