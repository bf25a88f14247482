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
// and hidden states on the public dataset (Eq. 9). Hidden states are
// matched with uniform layer mapping: student layer i mimics teacher
// layer ⌊(i+1)·T/D⌋-1.
func (g *Generator) distill(teacher, student *nn.BackboneClassifier, rng *rand.Rand) error {
	cfg := g.Distill
	opt := nn.NewAdam(cfg.LR)
	tb, sb := teacher.Backbone, student.Backbone
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := rng.Perm(g.Public.Len())
		for start := 0; start < len(order); start += cfg.Batch {
			end := start + cfg.Batch
			if end > len(order) {
				end = len(order)
			}
			nn.ZeroGrads(student)
			for _, i := range order[start:end] {
				x := g.Public.X[i]
				tLogits, err := teacher.Forward(x)
				if err != nil {
					return err
				}
				tEmb := tb.Embedding().Clone()
				tHidden := tb.HiddenStates()

				sLogits, err := student.Forward(x)
				if err != nil {
					return err
				}
				// λ₁ · l(ý, y) on logits (MSE per Eq. 9).
				_, dLogits := nn.MSEVec(sLogits, tLogits)
				for j := range dLogits {
					dLogits[j] *= cfg.Lambda1
				}
				dl := tensor.FromSlice(1, len(dLogits), dLogits)
				dcls := student.Head.Backward(dl)
				dFinal := tensor.New(sb.SeqLen(), sb.Cfg.DModel)
				copy(dFinal.Row(0), dcls.Row(0))

				injections := make(map[int]*tensor.Matrix)
				// λ₂ · l(É, E) on embeddings.
				_, dEmb := nn.MSE(sb.Embedding(), tEmb)
				dEmb.Scale(cfg.Lambda2)
				injections[0] = dEmb
				// l(H́, H) on mapped hidden states.
				sHidden := sb.HiddenStates()
				for si := range sHidden {
					ti := (si+1)*len(tHidden)/len(sHidden) - 1
					if ti < 0 {
						ti = 0
					}
					_, dh := nn.MSE(sHidden[si], tHidden[ti])
					injections[si+1] = dh
				}
				sb.Backward(dFinal, injections)
			}
			opt.Step(student.Params())
		}
	}
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
