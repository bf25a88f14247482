// Package prune implements ACME's backbone generation (§III-B1): the
// two-step derivation of smaller backbones from the reference model —
// importance-ranked width segmentation producing the variable-width
// teacher ´θᴮ, then knowledge distillation (Eq. 9) into a student θᴮ
// with dynamic width Wᴮ and depth Dᴮ.
package prune

import (
	"fmt"
	"math/rand"

	"acme/internal/data"
	"acme/internal/importance"
	"acme/internal/nn"
	"acme/internal/tensor"
)

// DistillConfig controls the knowledge-distillation objective of Eq. 9:
// L = λ₁·l(ý,y) + λ₂·l(É,E) + l(H́,H).
type DistillConfig struct {
	Lambda1 float64 // logits term weight
	Lambda2 float64 // embedding term weight
	Epochs  int
	Batch   int
	LR      float64
}

// DefaultDistillConfig returns sensible micro-scale defaults.
func DefaultDistillConfig() DistillConfig {
	return DistillConfig{Lambda1: 1.0, Lambda2: 0.5, Epochs: 2, Batch: 8, LR: 1e-3}
}

// Generator derives (w, d)-scaled backbones from a trained reference
// classifier using a public dataset Dᴄ.
type Generator struct {
	Ref     *nn.BackboneClassifier
	Public  *data.Dataset
	Distill DistillConfig

	importanceReady bool
}

// NewGenerator returns a backbone generator over the trained reference
// model and the cloud's public dataset.
func NewGenerator(ref *nn.BackboneClassifier, public *data.Dataset, cfg DistillConfig) *Generator {
	return &Generator{Ref: ref, Public: public, Distill: cfg}
}

// EnsureImportance computes head/neuron importances on the public
// dataset once (Eq. 6–8). maxSamples bounds the probe size.
func (g *Generator) EnsureImportance(maxSamples int, rng *rand.Rand) error {
	if g.importanceReady {
		return nil
	}
	if err := importance.AccumulateBackbone(g.Ref, g.Public, maxSamples, rng); err != nil {
		return err
	}
	g.importanceReady = true
	return nil
}

// Generate produces the backbone θᴮ = δ(θ₀ᴮ, w, d): it clones the
// reference, masks its width down to w by accumulated importance,
// restricts depth to d, and (when cfg.Epochs > 0) distills from the
// width-only teacher ´θᴮ per Eq. 9.
//
// The returned classifier wraps the student backbone with a copy of the
// reference head θ₀ᴴ, matching the paper's intermediate model
// θ̃ = (θ₀ᴴ, δ(θ₀ᴮ, w, d)).
func (g *Generator) Generate(w float64, d int, rng *rand.Rand) (*nn.BackboneClassifier, error) {
	if !g.importanceReady {
		if err := g.EnsureImportance(256, rng); err != nil {
			return nil, fmt.Errorf("prune: importance: %w", err)
		}
	}
	// Teacher ´θᴮ: width-masked, full depth.
	teacherBB := g.Ref.Backbone.Clone()
	if err := teacherBB.ScaleWidth(w); err != nil {
		return nil, fmt.Errorf("prune: teacher width: %w", err)
	}
	teacher := &nn.BackboneClassifier{Backbone: teacherBB, Head: cloneLinear(g.Ref.Head)}

	// Student θᴮ: width-masked and depth-restricted.
	studentBB := g.Ref.Backbone.Clone()
	if err := studentBB.ScaleWidth(w); err != nil {
		return nil, fmt.Errorf("prune: student width: %w", err)
	}
	if err := studentBB.SetDepth(d); err != nil {
		return nil, fmt.Errorf("prune: student depth: %w", err)
	}
	student := &nn.BackboneClassifier{Backbone: studentBB, Head: cloneLinear(g.Ref.Head)}

	if g.Distill.Epochs > 0 {
		if err := g.distill(teacher, student, rng); err != nil {
			return nil, fmt.Errorf("prune: distill: %w", err)
		}
	}
	return student, nil
}

// distill trains the student to match the teacher's logits, embeddings
// and hidden states on the public dataset (Eq. 9).
func (g *Generator) distill(teacher, student *nn.BackboneClassifier, rng *rand.Rand) error {
	d := newDistillation(teacher, student, g.Distill)
	defer d.release()
	for epoch := 0; epoch < g.Distill.Epochs; epoch++ {
		order := rng.Perm(g.Public.Len())
		for start := 0; start < len(order); start += g.Distill.Batch {
			if err := d.minibatch(g.Public.X, order[start:min(start+g.Distill.Batch, len(order))]); err != nil {
				return err
			}
		}
	}
	return nil
}

// distillation is one distill call: its gradient buffers are made once
// per call, and the student's gradients and Adam moments are borrowed
// until release, so a minibatch allocates nothing per sample. The
// teacher's embedding and hidden states are read from its own
// per-instance buffers, which the student's passes never touch.
type distillation struct {
	teacher, student *nn.BackboneClassifier
	cfg              DistillConfig
	params           []*nn.Param
	opt              *nn.Adam
	grads            *nn.GradLease

	dLogits    tensor.Matrix // 1 × classes
	dFinal     *tensor.Matrix
	injections map[int]*tensor.Matrix // the embedding's (0) and each hidden state's gradient
}

// newDistillation makes a distill call's buffers and borrows the
// student's gradients and Adam moments.
func newDistillation(teacher, student *nn.BackboneClassifier, cfg DistillConfig) *distillation {
	sb := student.Backbone
	n := sb.SeqLen() * sb.Cfg.DModel
	buf := make([]float64, (sb.ActiveDepth+2)*n)
	view := func(k int) *tensor.Matrix { return tensor.FromSlice(sb.SeqLen(), sb.Cfg.DModel, buf[k*n:(k+1)*n]) }
	d := &distillation{
		teacher: teacher, student: student, cfg: cfg,
		params:     student.Params(),
		opt:        nn.BorrowAdam(cfg.LR),
		dLogits:    tensor.Matrix{Rows: 1, Cols: student.Head.Out, Data: make([]float64, student.Head.Out)},
		dFinal:     view(sb.ActiveDepth + 1), // only row 0 is ever written
		injections: make(map[int]*tensor.Matrix, sb.ActiveDepth+1),
	}
	for l := 0; l <= sb.ActiveDepth; l++ {
		d.injections[l] = view(l)
	}
	d.grads = nn.BorrowGrads(d.params)
	return d
}

// release gives back the borrowed gradients and moments.
func (d *distillation) release() {
	d.grads.Release()
	d.opt.Release()
}

// minibatch accumulates the gradient of Eq. 9 over the samples xs[idx]
// and takes one Adam step. Hidden states are matched with uniform layer
// mapping: student layer i mimics teacher layer ⌊(i+1)·T/D⌋-1.
func (d *distillation) minibatch(xs [][]float64, idx []int) error {
	tb, sb := d.teacher.Backbone, d.student.Backbone
	for _, i := range idx {
		tLogits, err := d.teacher.Forward(xs[i])
		if err != nil {
			return err
		}
		sLogits, err := d.student.Forward(xs[i])
		if err != nil {
			return err
		}
		// λ₁ · l(ý, y) on logits (MSE per Eq. 9).
		nn.MSEVec(d.dLogits.Data, sLogits, tLogits)
		for j := range d.dLogits.Data {
			d.dLogits.Data[j] *= d.cfg.Lambda1
		}
		copy(d.dFinal.Row(0), d.student.Head.Backward(&d.dLogits).Row(0))

		// λ₂ · l(É, E) on embeddings.
		nn.MSE(d.injections[0], sb.Embedding(), tb.Embedding())
		d.injections[0].Scale(d.cfg.Lambda2)
		// l(H́, H) on mapped hidden states.
		sHidden, tHidden := sb.HiddenStates(), tb.HiddenStates()
		for si := range sHidden {
			ti := max((si+1)*len(tHidden)/len(sHidden)-1, 0)
			nn.MSE(d.injections[si+1], sHidden[si], tHidden[ti])
		}
		sb.Backward(d.dFinal, d.injections)
	}
	d.opt.Step(d.params)
	return nil
}

func cloneLinear(l *nn.Linear) *nn.Linear {
	return &nn.Linear{
		In:  l.In,
		Out: l.Out,
		W:   l.W.Clone(),
		B:   l.B.Clone(),
	}
}
