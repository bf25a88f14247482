// Package importance implements ACME's Taylor-expansion importance
// estimators: head/neuron importance for backbone width pruning
// (Eq. 6–8) and per-parameter importance sets for header refinement
// (Eq. 16–18).
package importance

import (
	"fmt"
	"math/rand"

	"acme/internal/data"
	"acme/internal/nn"
	"acme/internal/tensor"
)

// AccumulateBackbone runs forward/backward passes of classifier c over
// up to maxSamples samples of ds with importance recording enabled,
// filling the per-block HeadImportance and NeuronImportance accumulators
// of the backbone (Eq. 8: Ih ≈ |∂F/∂Oh · Oh|). The passes run through
// nn's AccumulateImportance, on replicas of c that split them across the
// cores, bit-identical to one pass after another.
//
// Parameter gradients are zero on return; the model weights are not
// updated.
func AccumulateBackbone(c *nn.BackboneClassifier, ds *data.Dataset, maxSamples int, rng *rand.Rand) error {
	if maxSamples <= 0 || maxSamples > ds.Len() {
		maxSamples = ds.Len()
	}
	bb := c.Backbone
	bb.ResetImportance()
	bb.SetRecordImportance(true)
	defer bb.SetRecordImportance(false)

	order := rng.Perm(ds.Len())[:maxSamples]
	if err := c.AccumulateImportance(ds.X, ds.Y, order); err != nil {
		return fmt.Errorf("importance: forward: %w", err)
	}
	return nil
}

// Set is a per-parameter importance set Qn (Eq. 18): one entry per
// scalar parameter of a module, in the module's Params() order. All
// devices in a cluster share the same header architecture, so sets are
// element-wise comparable and can be aggregated by convex combination
// (Eq. 21).
type Set struct {
	// Layers[i] holds the importances of the i-th parameter tensor.
	Layers [][]float64
}

// NewSet allocates a zeroed set shaped like m's parameters.
func NewSet(m nn.Module) *Set { return leasedSet(nil, m.Params()) }

// leasedSet is a zeroed set shaped like params, its rows cut from l (a
// nil l allocates them).
func leasedSet(l *nn.Lease, params []*nn.Param) *Set {
	s := &Set{Layers: make([][]float64, len(params))}
	for i, p := range params {
		s.Layers[i] = l.F64s(p.NumParams())
		clear(s.Layers[i])
	}
	return s
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	out := &Set{Layers: make([][]float64, len(s.Layers))}
	for i, l := range s.Layers {
		out.Layers[i] = append([]float64(nil), l...)
	}
	return out
}

// ZeroClone returns a zeroed set with the same shape as s.
func (s *Set) ZeroClone() *Set {
	out := &Set{Layers: make([][]float64, len(s.Layers))}
	for i, l := range s.Layers {
		out.Layers[i] = make([]float64, len(l))
	}
	return out
}

// Scale multiplies every entry by f.
func (s *Set) Scale(f float64) {
	for _, l := range s.Layers {
		for i := range l {
			l[i] *= f
		}
	}
}

// AddScaled computes s += f·o. The sets must have identical shape.
func (s *Set) AddScaled(f float64, o *Set) error {
	if len(s.Layers) != len(o.Layers) {
		return fmt.Errorf("importance: %d layers vs %d", len(s.Layers), len(o.Layers))
	}
	for i := range s.Layers {
		if len(s.Layers[i]) != len(o.Layers[i]) {
			return fmt.Errorf("importance: layer %d size %d vs %d", i, len(s.Layers[i]), len(o.Layers[i]))
		}
		tensor.Axpy(f, o.Layers[i], s.Layers[i])
	}
	return nil
}

// Accumulate adds the first-order Taylor importance of the module's
// current gradients, Q⁽¹⁾ᵣ = (gᵣ·υᵣ)² (Eq. 17), into s. Call it after
// each minibatch backward pass, then Scale(1/batches) for the average
// the paper uses as the pruning criterion.
func (s *Set) Accumulate(m nn.Module) error {
	params := m.Params()
	if len(params) != len(s.Layers) {
		return fmt.Errorf("importance: module has %d tensors, set has %d", len(params), len(s.Layers))
	}
	for i, p := range params {
		if p.NumParams() != len(s.Layers[i]) {
			return fmt.Errorf("importance: tensor %d size %d vs %d", i, p.NumParams(), len(s.Layers[i]))
		}
		layer := s.Layers[i]
		for j := range layer {
			gv := p.Grad.Data[j] * p.Value.Data[j]
			layer[j] += gv * gv
		}
	}
	return nil
}
