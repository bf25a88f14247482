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

	team *team // replicas of the data-parallel passes, kept across calls
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
	c.dFinal = zeroed(c.dFinal, c.Backbone.SeqLen(), c.Backbone.Cfg.DModel)
	copy(c.dFinal.Row(0), dcls.Row(0))
	c.Backbone.Backward(c.dFinal, nil)
}

// Params implements Module.
func (c *BackboneClassifier) Params() []*Param {
	return append(c.Backbone.Params(), c.Head.Params()...)
}

// TrainEpoch runs one epoch of minibatch training on (xs, ys), shuffling
// with rng, and returns the mean loss. Gradients accumulate over each
// minibatch before a single optimizer step.
//
// A BackboneClassifier trains data-parallel: each minibatch splits among
// min(tensor.Parallelism(), batch) replicas of it, with a result
// bit-identical to the serial loop below.
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
	if bc, ok := c.(*BackboneClassifier); ok {
		if n := min(tensor.Parallelism(), batch); n > 1 {
			return bc.trainEpoch(n, opt, xs, ys, order, batch)
		}
	}
	var total float64
	var dl []float64
	for start := 0; start < len(order); start += batch {
		end := start + batch
		if end > len(order) {
			end = len(order)
		}
		ZeroGrads(c)
		for _, i := range order[start:end] {
			logits, err := c.Forward(xs[i])
			if err != nil {
				return 0, err
			}
			dl = grow(dl, len(logits))
			total += CrossEntropy(dl, logits, ys[i])
			scaleVec(dl, 1/float64(end-start))
			c.Backward(dl)
		}
		opt.Step(c.Params())
	}
	return total / float64(len(xs)), nil
}

// AccumulateImportance runs a cross-entropy forward and backward pass of
// c for every sample xs[i], i in idx, and adds each pass's head and
// neuron importance terms (Eq. 8) to the blocks that record them
// (SetRecordImportance), in idx order. The weights do not move, and
// every gradient is zero on return.
//
// The passes split among min(tensor.Parallelism(), len(idx)) replicas of
// c, with importances bit-identical to one pass after another.
func (c *BackboneClassifier) AccumulateImportance(xs [][]float64, ys []int, idx []int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("nn: %d samples vs %d labels", len(xs), len(ys))
	}
	for _, i := range idx {
		if i < 0 || i >= len(xs) {
			return fmt.Errorf("nn: sample index %d outside [0,%d)", i, len(xs))
		}
	}
	var err error
	if n := min(tensor.Parallelism(), len(idx)); n > 1 {
		err = c.importancePasses(n, xs, ys, idx)
	} else {
		p := NewPass(c)
		err = p.Run(xs, ys, idx, 1)
		p.Release()
	}
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
		dl = grow(dl, len(logits))
		total += CrossEntropy(dl, logits, ys[i])
	}
	n := float64(len(xs))
	return total / n, float64(correct) / n, nil
}

// grow returns buf if it holds n values, else a new slice of n.
func grow(buf []float64, n int) []float64 {
	if len(buf) == n {
		return buf
	}
	return make([]float64, n)
}

func scaleVec(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}
