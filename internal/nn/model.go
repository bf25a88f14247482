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
	dl := tensor.FromSlice(1, len(dlogits), dlogits)
	dcls := c.Head.Backward(dl)
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
func TrainEpoch(c Classifier, opt Optimizer, xs [][]float64, ys []int, batch int, rng *rand.Rand) (float64, error) {
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
	var total float64
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
			loss, dl := CrossEntropy(logits, ys[i])
			total += loss
			scaleVec(dl, 1/float64(end-start))
			c.Backward(dl)
		}
		opt.Step(c.Params())
	}
	return total / float64(len(xs)), nil
}

// BatchGradients zeroes c's gradients and accumulates one minibatch of
// cross-entropy gradients over the samples at idx, leaving them in
// place for the caller (an optimizer step, or a Taylor importance fold
// that reads g·υ per parameter). The model weights are not updated.
func BatchGradients(c Classifier, xs [][]float64, ys []int, idx []int) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("nn: %d samples vs %d labels", len(xs), len(ys))
	}
	ZeroGrads(c)
	for _, i := range idx {
		if i < 0 || i >= len(xs) {
			return fmt.Errorf("nn: batch index %d outside [0,%d)", i, len(xs))
		}
		logits, err := c.Forward(xs[i])
		if err != nil {
			return fmt.Errorf("nn: batch forward: %w", err)
		}
		_, dl := CrossEntropy(logits, ys[i])
		c.Backward(dl)
	}
	return nil
}

// Evaluate returns top-1 accuracy of c on (xs, ys).
func Evaluate(c Classifier, xs [][]float64, ys []int) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
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
	for i, x := range xs {
		logits, err := c.Forward(x)
		if err != nil {
			return 0, 0, err
		}
		if Argmax(logits) == ys[i] {
			correct++
		}
		l, _ := CrossEntropy(logits, ys[i])
		total += l
	}
	n := float64(len(xs))
	return total / n, float64(correct) / n, nil
}

func scaleVec(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}
