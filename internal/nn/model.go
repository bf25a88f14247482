package nn

import (
	"fmt"
	"math/rand"

	"acme/internal/tensor"
)

// Classifier maps a raw sample to class logits and supports
// backpropagation from a logits gradient.
type Classifier interface {
	Module
	Forward(x []float64) ([]float64, error)
	Backward(dlogits []float64)
}

// BackboneClassifier pairs a Backbone with a linear head over the [CLS]
// token — the θ₀ᴴ reference header of the paper and the model used to
// pretrain the backbone on the public cloud dataset.
type BackboneClassifier struct {
	Backbone *Backbone
	Head     *Linear

	cls    *tensor.Matrix // 1×d copy of the CLS representation, reused
	dFinal *tensor.Matrix // reused backward scratch
	dl     tensor.Matrix  // Backward's view of the logits gradient
}

var _ Classifier = (*BackboneClassifier)(nil)

// NewBackboneClassifier builds a classifier over backbone b.
func NewBackboneClassifier(b *Backbone, numClasses int, rng *rand.Rand) *BackboneClassifier {
	return &BackboneClassifier{
		Backbone: b,
		Head:     NewLinear("head", b.Cfg.DModel, numClasses, rng),
	}
}

// Forward implements Classifier.
func (c *BackboneClassifier) Forward(x []float64) ([]float64, error) {
	f, err := c.Backbone.Forward(x)
	if err != nil {
		return nil, err
	}
	c.cls = tensor.Ensure(c.cls, 1, f.Cols)
	copy(c.cls.Data, f.Row(0))
	return c.Head.Forward(c.cls).Row(0), nil
}

// Backward implements Classifier.
func (c *BackboneClassifier) Backward(dlogits []float64) {
	c.dl = tensor.Matrix{Rows: 1, Cols: len(dlogits), Data: dlogits}
	dcls := c.Head.Backward(&c.dl)
	c.dFinal = tensor.Ensure(c.dFinal, c.Backbone.SeqLen(), c.Backbone.Cfg.DModel)
	c.dFinal.Zero()
	copy(c.dFinal.Row(0), dcls.Row(0))
	c.Backbone.Backward(c.dFinal, nil)
}

// Params implements Module.
func (c *BackboneClassifier) Params() []*Param {
	return append(c.Backbone.Params(), c.Head.Params()...)
}

// StackedLayers implements Stacking: every layer with parameters, the
// MLPs for their neuron terms, and the backbone for its token gradient.
func (c *BackboneClassifier) StackedLayers() []Stackable {
	b := c.Backbone
	ls := []Stackable{b, b.PatchEmbed}
	for _, blk := range b.Blocks {
		ls = append(ls, blk.LN1, blk.Attn, blk.LN2, blk.FFN, blk.FFN.FC1, blk.FFN.FC2)
	}
	return append(ls, b.FinalLN, c.Head)
}

// replica returns a copy of c over the same parameters and masks, with
// buffers from sc, whose blocks record importance terms when c's do:
// one of a Pass's replicas.
func (c *BackboneClassifier) replica(sc *Scratch) *BackboneClassifier {
	lin := func(l *Linear) *Linear { return &Linear{In: l.In, Out: l.Out, W: l.W, B: l.B, sc: sc} }
	ln := func(l *LayerNorm) *LayerNorm { return &LayerNorm{Dim: l.Dim, Gain: l.Gain, Bias: l.Bias, sc: sc} }
	b := c.Backbone
	rb := &Backbone{Cfg: b.Cfg, ActiveDepth: b.ActiveDepth, PatchEmbed: lin(b.PatchEmbed), CLS: b.CLS, Pos: b.Pos,
		Blocks: make([]*Block, len(b.Blocks)), FinalLN: ln(b.FinalLN), sc: sc}
	for l, blk := range b.Blocks {
		m, f := blk.Attn, blk.FFN
		rb.Blocks[l] = &Block{LN1: ln(blk.LN1), LN2: ln(blk.LN2), sc: sc,
			Attn: &MHSA{DModel: m.DModel, NumHeads: m.NumHeads, HeadDim: m.HeadDim,
				Wq: m.Wq, Wk: m.Wk, Wv: m.Wv, Wo: m.Wo, Bo: m.Bo,
				HeadMask: m.HeadMask, RecordImportance: m.RecordImportance,
				attn: make([]tensor.Matrix, m.NumHeads), headOut: make([]tensor.Matrix, m.NumHeads), sc: sc},
			FFN: &MLP{DModel: f.DModel, Hidden: f.Hidden, FC1: lin(f.FC1), FC2: lin(f.FC2), act: GELU{sc: sc},
				NeuronMask: f.NeuronMask, RecordImportance: f.RecordImportance}}
	}
	return &BackboneClassifier{Backbone: rb, Head: lin(c.Head)}
}

// TrainEpoch runs one epoch of minibatch training on (xs, ys), shuffling
// with rng, and returns the mean loss. Gradients accumulate over each
// minibatch, each logits gradient multiplied by 1/len(minibatch), before
// a single optimizer step. The minibatches run through one Pass, which
// splits a BackboneClassifier's among min(tensor.Parallelism(), batch)
// replicas.
func TrainEpoch(c Classifier, opt *Adam, xs [][]float64, ys []int, batch int, rng *rand.Rand) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("nn: %d samples vs %d labels", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, nil
	}
	if batch <= 0 {
		batch = 16
	}
	order := rng.Perm(len(xs))
	ZeroGrads(c)
	p := newPass(c, batch)
	defer p.Release()
	p.stepWith(opt, c.Params())
	for start := 0; start < len(order); start += batch {
		mb := order[start:min(start+batch, len(order))]
		if err := p.run(xs, ys, mb, 1, 1/float64(len(mb))); err != nil {
			return 0, err
		}
	}
	return p.loss / float64(len(xs)), nil
}

// AccumulateImportance runs a cross-entropy forward and backward pass of
// c for every sample xs[i], i in idx, and adds each pass's head and
// neuron importance terms (Eq. 8) to the blocks that record them
// (SetRecordImportance), in idx order. The weights do not move, and
// every gradient is zero on return.
//
// The passes run through one Pass, split among
// min(tensor.Parallelism(), len(idx)) replicas of c.
func (c *BackboneClassifier) AccumulateImportance(xs [][]float64, ys []int, idx []int) error {
	ZeroGrads(c)
	p := newPass(c, len(idx))
	err := p.Run(xs, ys, idx, 1)
	p.Release()
	ZeroGrads(c)
	return err
}

// Evaluate returns top-1 accuracy of c on (xs, ys). A classifier that
// takes a Scratch runs on buffers lent for the call.
func Evaluate(c Classifier, xs [][]float64, ys []int) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	sc := lendScratch(c)
	defer sc.end(c)
	var correct int
	for i, x := range xs {
		logits, err := c.Forward(x)
		if err != nil {
			return 0, err
		}
		if Argmax(logits) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs)), nil
}

// MeanLoss returns the mean cross-entropy of c on (xs, ys) without
// touching gradients.
func MeanLoss(c Classifier, xs [][]float64, ys []int) (float64, error) {
	loss, _, err := Score(c, xs, ys)
	return loss, err
}

// Score returns MeanLoss and Evaluate of c on (xs, ys) from one forward
// pass per sample, bit-equal to calling the two separately.
func Score(c Classifier, xs [][]float64, ys []int) (loss, accuracy float64, err error) {
	if len(xs) == 0 {
		return 0, 0, nil
	}
	var total float64
	var correct int
	var dl []float64 // unread: the loss is all Score wants
	for i, x := range xs {
		logits, err := c.Forward(x)
		if err != nil {
			return 0, 0, err
		}
		if Argmax(logits) == ys[i] {
			correct++
		}
		if len(dl) != len(logits) {
			dl = make([]float64, len(logits))
		}
		total += CrossEntropy(dl, logits, ys[i])
	}
	n := float64(len(xs))
	return total / n, float64(correct) / n, nil
}
