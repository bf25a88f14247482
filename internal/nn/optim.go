package nn

import (
	"math"

	"acme/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and zeroes gradients.
	Step(params []*Param)
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	Clip     float64 // max gradient L2 norm per parameter tensor; 0 disables

	velocity map[*Param][]float64
}

var _ Optimizer = (*SGD)(nil)

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*Param][]float64)}
}

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		g := p.Grad.Data
		clipNorm(g, s.Clip)
		if s.Momentum == 0 {
			for i := range g {
				p.Value.Data[i] -= s.LR * g[i]
			}
		} else {
			v, ok := s.velocity[p]
			if !ok {
				v = make([]float64, len(g))
				s.velocity[p] = v
			}
			tensor.ScaleAddVec(s.Momentum, v, g)
			tensor.Axpy(-s.LR, v, p.Value.Data)
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR           float64
	Beta1, Beta2 float64
	Eps          float64
	Clip         float64 // max gradient L2 norm per parameter tensor; 0 disables

	t     int
	state map[*Param]moments
}

// moments is Adam's per-parameter state: the first and second moment
// estimates, each as long as the parameter.
type moments struct{ m, v []float64 }

var _ Optimizer = (*Adam)(nil)

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		Clip:  5,
		state: make(map[*Param]moments),
	}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	a.meet(params)
	for _, p := range params {
		g := p.Grad.Data
		clipNorm(g, a.Clip)
		st := a.state[p]
		m, v := st.m, st.v
		for i := range g {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g[i]
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g[i]*g[i]
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.Value.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.ZeroGrad()
	}
}

// meet gives every parameter Step has not seen before its zeroed
// moments, all cut from one slab: a header has some thirty parameters
// and a device builds a fresh Adam for every round's TrainLocal.
func (a *Adam) meet(params []*Param) {
	var need int
	for _, p := range params {
		if _, ok := a.state[p]; !ok {
			need += 2 * len(p.Grad.Data)
		}
	}
	if need == 0 {
		return
	}
	slab := make([]float64, need)
	for _, p := range params {
		if _, ok := a.state[p]; ok {
			continue
		}
		n := len(p.Grad.Data)
		a.state[p] = moments{m: slab[:n:n], v: slab[n : 2*n : 2*n]}
		slab = slab[2*n:]
	}
}

func clipNorm(g []float64, maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	var s float64
	for _, v := range g {
		s += v * v
	}
	n := math.Sqrt(s)
	if n <= maxNorm {
		return
	}
	scale := maxNorm / n
	for i := range g {
		g[i] *= scale
	}
}
