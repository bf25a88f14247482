package nn

import (
	"math"

	"acme/internal/tensor"
)

// CrossEntropy returns the softmax cross-entropy loss of logits against
// the integer label and writes the gradient of the loss with respect to
// the logits (p - onehot) into grad, which must be as long as logits.
func CrossEntropy(grad, logits []float64, label int) float64 {
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		grad[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range grad {
		grad[i] *= inv
	}
	loss := -math.Log(grad[label] + 1e-12)
	grad[label] -= 1
	return loss
}

// Argmax returns the index of the largest element.
func Argmax(v []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// MSE returns the mean squared error between a and b and the gradient
// with respect to a, i.e. 2(a-b)/n.
func MSE(a, b *tensor.Matrix) (float64, *tensor.Matrix) {
	d := tensor.Sub(a, b)
	n := float64(len(d.Data))
	var loss float64
	for _, v := range d.Data {
		loss += v * v
	}
	loss /= n
	d.Scale(2 / n)
	return loss, d
}

// MSEVec returns the mean squared error between vectors a and b and the
// gradient with respect to a.
func MSEVec(a, b []float64) (float64, []float64) {
	n := float64(len(a))
	grad := make([]float64, len(a))
	var loss float64
	for i := range a {
		d := a[i] - b[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n, grad
}
