// Package data provides the synthetic datasets that stand in for
// CIFAR-100 and Stanford Cars, plus the IID / non-IID partitioners used
// to emulate heterogeneous device data.
//
// Samples are class-conditional Gaussian mixtures with a two-level class
// hierarchy (superclasses containing fine classes). The hierarchy gives
// the generator controllable inter-class geometry: classes in the same
// superclass overlap more, so distribution distances between device
// shards are meaningful and "confusion levels" (the paper's C1–C3) can
// be dialed in by shrinking class separation and adding label noise.
package data

import (
	"fmt"
	"math/rand"
)

// Spec describes a synthetic dataset family.
type Spec struct {
	Name       string
	NumClasses int
	NumSuper   int     // superclasses; must divide NumClasses
	Dim        int     // feature dimension of each sample
	SuperSep   float64 // distance scale between superclass means
	ClassSep   float64 // distance scale between class means within a superclass
	WithinStd  float64 // per-class sample standard deviation
	LabelNoise float64 // probability a label is replaced uniformly at random
}

// CIFAR100Like returns the spec standing in for CIFAR-100
// (100 classes, 20 superclasses).
func CIFAR100Like() Spec {
	return Spec{
		Name:       "cifar100-like",
		NumClasses: 100,
		NumSuper:   20,
		Dim:        64,
		SuperSep:   3.0,
		ClassSep:   1.2,
		WithinStd:  0.9,
	}
}

// CarsLike returns the spec standing in for Stanford Cars: more classes,
// finer-grained (smaller class separation), i.e. a harder dataset.
func CarsLike() Spec {
	return Spec{
		Name:       "cars-like",
		NumClasses: 196,
		NumSuper:   28,
		Dim:        64,
		SuperSep:   2.4,
		ClassSep:   0.7,
		WithinStd:  0.9,
	}
}

// Validate reports spec errors.
func (s Spec) Validate() error {
	switch {
	case s.NumClasses <= 0 || s.Dim <= 0:
		return fmt.Errorf("data: non-positive classes/dim in %q", s.Name)
	case s.NumSuper <= 0 || s.NumClasses%s.NumSuper != 0:
		return fmt.Errorf("data: %d classes not divisible by %d superclasses", s.NumClasses, s.NumSuper)
	case s.LabelNoise < 0 || s.LabelNoise > 1:
		return fmt.Errorf("data: label noise %v outside [0,1]", s.LabelNoise)
	default:
		return nil
	}
}

// Dataset is a labeled sample collection.
type Dataset struct {
	Name       string
	NumClasses int
	Dim        int
	X          [][]float64
	Y          []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Subset returns a dataset view containing the given indices (shares
// sample storage with d).
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{Name: d.Name, NumClasses: d.NumClasses, Dim: d.Dim}
	out.X = make([][]float64, len(idx))
	out.Y = make([]int, len(idx))
	for i, j := range idx {
		out.X[i] = d.X[j]
		out.Y[i] = d.Y[j]
	}
	return out
}

// ClassHistogram returns the per-class sample counts normalized to sum
// to 1; an empty dataset returns all zeros.
func (d *Dataset) ClassHistogram() []float64 {
	h := make([]float64, d.NumClasses)
	if len(d.Y) == 0 {
		return h
	}
	inv := 1 / float64(len(d.Y))
	for _, y := range d.Y {
		h[y] += inv
	}
	return h
}

// Split partitions d into a training set of fraction frac and the
// remainder, shuffled by rng.
func (d *Dataset) Split(frac float64, rng *rand.Rand) (train, test *Dataset) {
	order := rng.Perm(d.Len())
	cut := int(frac * float64(d.Len()))
	return d.Subset(order[:cut]), d.Subset(order[cut:])
}

// Generator produces samples for one Spec with fixed class means, so
// shards generated for different devices come from the same underlying
// population.
type Generator struct {
	Spec       Spec
	classMeans [][]float64
}

// NewGenerator builds the class-mean geometry for spec.
func NewGenerator(spec Spec) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seed := int64(len(spec.Name))*7919 + 12345
	for _, r := range spec.Name {
		seed = seed*31 + int64(r)
	}
	rng := rand.New(rand.NewSource(seed))
	perSuper := spec.NumClasses / spec.NumSuper
	superMeans := make([][]float64, spec.NumSuper)
	for s := range superMeans {
		superMeans[s] = randVec(rng, spec.Dim, spec.SuperSep)
	}
	g := &Generator{Spec: spec}
	g.classMeans = make([][]float64, spec.NumClasses)
	for c := range g.classMeans {
		mean := append([]float64(nil), superMeans[c/perSuper]...)
		for j, v := range randVec(rng, spec.Dim, spec.ClassSep) {
			mean[j] += v
		}
		g.classMeans[c] = mean
	}
	return g, nil
}

// Sample draws n samples from the given classes (uniformly across
// them), applying the spec's label noise.
func (g *Generator) Sample(n int, classes []int, rng *rand.Rand) *Dataset {
	if len(classes) == 0 {
		classes = make([]int, g.Spec.NumClasses)
		for c := range classes {
			classes[c] = c
		}
	}
	ds := &Dataset{
		Name:       g.Spec.Name,
		NumClasses: g.Spec.NumClasses,
		Dim:        g.Spec.Dim,
		X:          make([][]float64, n),
		Y:          make([]int, n),
	}
	for i := 0; i < n; i++ {
		c := classes[rng.Intn(len(classes))]
		x := append([]float64(nil), g.classMeans[c]...)
		for j := range x {
			x[j] += rng.NormFloat64() * g.Spec.WithinStd
		}
		label := c
		if g.Spec.LabelNoise > 0 && rng.Float64() < g.Spec.LabelNoise {
			label = rng.Intn(g.Spec.NumClasses)
		}
		ds.X[i] = x
		ds.Y[i] = label
	}
	return ds
}

func randVec(rng *rand.Rand, dim int, scale float64) []float64 {
	v := make([]float64, dim)
	for i := range v {
		v[i] = rng.NormFloat64() * scale
	}
	return v
}
