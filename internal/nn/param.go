// Package nn implements a small, dependency-free neural-network stack
// with manual backpropagation: linear layers, layer normalization,
// multi-head self-attention with per-head masks, MLPs with per-neuron
// masks, 1-D convolutions and poolings over token sequences, losses, and
// SGD/Adam optimizers.
//
// The stack is sized for CPU-trainable micro-Transformers (d_model tens,
// a handful of layers). It exists so ACME's pruning, distillation,
// importance-estimation and NAS code paths run on a real trainable model
// rather than a mock; the paper-scale (ViT-B) numbers come from
// internal/surrogate.
//
// All layers operate on a single sample: a token sequence represented as
// a (seq × d) tensor.Matrix. Batches are loops over samples with gradient
// accumulation, which is plenty at this scale and keeps backward passes
// easy to audit.
package nn

import (
	"math"
	"math/rand"

	"acme/internal/tensor"
)

// Param is a trainable tensor with its accumulated gradient.
//
// Construction and initialisation are separate steps, and every layer
// constructor of this package (and of nas, which builds on them) takes
// the rng that selects between them. With an rng it returns a fresh
// layer: values drawn from it, gradient storage in place, ready for a
// Backward. With a nil rng it returns a received layer, the shell of a
// model whose values come from elsewhere — a Clone, a decoded package:
// value storage only, every weight zero (a LayerNorm's gain one), no
// random numbers drawn. A received parameter's Grad is nil until its
// first ZeroGrad, which every training loop issues before its first
// Backward, so a received model that trains pays for its gradients then
// and one that never does — a device's frozen backbone, a score-only
// clone — never holds any.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// NewParam allocates a named r×c parameter with a zeroed gradient.
func NewParam(name string, r, c int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(r, c),
		Grad:  tensor.New(r, c),
	}
}

// newParam is NewParam for a layer constructor handed rng: fresh with
// one, received (no gradient storage yet) with nil.
func newParam(name string, r, c int, rng *rand.Rand) *Param {
	if rng != nil {
		return NewParam(name, r, c)
	}
	return &Param{Name: name, Value: tensor.New(r, c)}
}

// InitXavier fills p with Xavier/Glorot-normal values for fanIn/fanOut.
// A nil rng leaves p as it is.
func (p *Param) InitXavier(rng *rand.Rand, fanIn, fanOut int) {
	p.InitNormal(rng, math.Sqrt(2.0/float64(fanIn+fanOut)))
}

// InitNormal fills p with N(0, std²) values. A nil rng leaves p as it
// is.
func (p *Param) InitNormal(rng *rand.Rand, std float64) {
	if rng != nil {
		p.Value.Randomize(rng, std)
	}
}

// ZeroGrad clears the accumulated gradient, allocating it first on a
// received parameter.
func (p *Param) ZeroGrad() {
	if p.Grad == nil {
		p.Grad = tensor.New(p.Value.Rows, p.Value.Cols)
		return
	}
	p.Grad.Zero()
}

// NumParams returns the number of scalar parameters in p.
func (p *Param) NumParams() int { return len(p.Value.Data) }

// Clone returns a deep copy of p (value and, where p has one, gradient).
func (p *Param) Clone() *Param {
	c := &Param{Name: p.Name, Value: p.Value.Clone()}
	if p.Grad != nil {
		c.Grad = p.Grad.Clone()
	}
	return c
}

// Module is anything that owns trainable parameters.
type Module interface {
	Params() []*Param
}

// ZeroGrads clears gradients of every parameter in m.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// CountParams sums the scalar parameter count of m.
func CountParams(m Module) int {
	var n int
	for _, p := range m.Params() {
		n += p.NumParams()
	}
	return n
}
