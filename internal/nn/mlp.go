package nn

import (
	"math"
	"math/rand"

	"acme/internal/tensor"
)

// MLP is the Transformer feed-forward block: Linear → GELU → Linear,
// with per-hidden-neuron binary masks.
//
// Masked neurons contribute nothing to the output and receive no
// gradient; this is how ACME's width-scaled backbones remove unimportant
// MLP neurons. When RecordImportance is set, Backward accumulates the
// Taylor importance |Σ grad(h_j)·h_j| per hidden neuron j (Eq. 8 applied
// to neurons).
type MLP struct {
	DModel, Hidden int
	FC1            *Linear
	FC2            *Linear
	act            GELU

	NeuronMask       []bool
	RecordImportance bool
	NeuronImportance []float64

	hidden *tensor.Matrix // post-activation, post-mask
}

// NewMLP returns an MLP with all neurons active.
func NewMLP(name string, dModel, hidden int, rng *rand.Rand) *MLP {
	m := &MLP{
		DModel:     dModel,
		Hidden:     hidden,
		FC1:        NewLinear(name+".fc1", dModel, hidden, rng),
		FC2:        NewLinear(name+".fc2", hidden, dModel, rng),
		NeuronMask: make([]bool, hidden),
	}
	for i := range m.NeuronMask {
		m.NeuronMask[i] = true
	}
	m.NeuronImportance = make([]float64, hidden)
	return m
}

// ActiveNeurons returns the number of unmasked hidden neurons.
func (m *MLP) ActiveNeurons() int {
	var n int
	for _, on := range m.NeuronMask {
		if on {
			n++
		}
	}
	return n
}

// Forward computes FC2(mask(GELU(FC1(x)))).
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := m.act.Forward(m.FC1.Forward(x))
	for j, on := range m.NeuronMask {
		if on {
			continue
		}
		for i := 0; i < h.Rows; i++ {
			h.Row(i)[j] = 0
		}
	}
	m.hidden = h
	return m.FC2.Forward(h)
}

// Backward accumulates gradients (and neuron importances when enabled)
// and returns dx.
func (m *MLP) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dh := m.FC2.Backward(dy)
	if m.RecordImportance {
		for j := range m.NeuronMask {
			var s float64
			for i := 0; i < dh.Rows; i++ {
				s += dh.Row(i)[j] * m.hidden.Row(i)[j]
			}
			m.NeuronImportance[j] += math.Abs(s)
		}
	}
	for j, on := range m.NeuronMask {
		if on {
			continue
		}
		for i := 0; i < dh.Rows; i++ {
			dh.Row(i)[j] = 0
		}
	}
	return m.FC1.Backward(m.act.Backward(dh))
}

// BackwardParams implements SeqOp. FC1's gradient needs the chain
// through FC2 anyway, so only FC1's own dx would be saved: the full
// Backward runs.
func (m *MLP) BackwardParams(dy *tensor.Matrix) { m.Backward(dy) }

// ResetImportance zeroes accumulated neuron importances.
func (m *MLP) ResetImportance() {
	for i := range m.NeuronImportance {
		m.NeuronImportance[i] = 0
	}
}

// Params implements Module.
func (m *MLP) Params() []*Param {
	return append(m.FC1.Params(), m.FC2.Params()...)
}

// ActiveParamCount returns the parameter count attributable to unmasked
// neurons.
func (m *MLP) ActiveParamCount() int {
	a := m.ActiveNeurons()
	return m.DModel*a + a + a*m.DModel + m.DModel
}
