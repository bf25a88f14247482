// Package wasserstein implements the distribution distances and the
// device-similarity matrix of ACME's Phase 2-2 (§III-D2, Eq. 19–20):
// exact 1-D p-Wasserstein distance, sliced Wasserstein for feature
// clouds, Jensen–Shannon divergence (the paper's comparison baseline),
// and the symmetrized, row-softmax-normalized similarity matrix Ŵ.
package wasserstein

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Distance1D returns the p-Wasserstein distance between two empirical
// 1-D distributions with the L1 ground metric: the order-statistics
// formula Wp = (mean |x₍ᵢ₎ − y₍ᵢ₎|ᵖ)^(1/p) after resampling both to a
// common quantile grid.
func Distance1D(xs, ys []float64, p float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return 0
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	return distance1DSorted(a, b, p)
}

// distance1DSorted is Distance1D over already-sorted, non-empty
// samples. It is the allocation-free core shared with Sliced, whose
// projection loop sorts its scratch buffers in place.
func distance1DSorted(a, b []float64, p float64) float64 {
	if p <= 0 {
		p = 1
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var total float64
	for i := 0; i < n; i++ {
		q := (float64(i) + 0.5) / float64(n)
		d := math.Abs(quantile(a, q) - quantile(b, q))
		if p == 1 {
			total += d
		} else {
			total += math.Pow(d, p)
		}
	}
	if p == 1 {
		return total / float64(n)
	}
	return math.Pow(total/float64(n), 1/p)
}

// quantile returns the q-th empirical quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	pos := q*float64(len(sorted)) - 0.5
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(len(sorted)-1) {
		return sorted[len(sorted)-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Sliced computes the sliced p-Wasserstein distance between two sets of
// d-dimensional feature vectors: the average 1-D distance over
// numProjections random unit directions. It approximates the
// multivariate optimal-transport distance the paper computes between
// probe-shard feature distributions while staying O(n log n).
func Sliced(xs, ys [][]float64, p float64, numProjections int, rng *rand.Rand) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, fmt.Errorf("wasserstein: empty sample set")
	}
	dim := len(xs[0])
	if len(ys[0]) != dim {
		return 0, fmt.Errorf("wasserstein: dim %d vs %d", dim, len(ys[0]))
	}
	if numProjections <= 0 {
		numProjections = 32
	}
	var total float64
	px := make([]float64, len(xs))
	py := make([]float64, len(ys))
	dir := make([]float64, dim)
	for k := 0; k < numProjections; k++ {
		randUnitInto(rng, dir)
		for i, x := range xs {
			px[i] = dot(dir, x)
		}
		for i, y := range ys {
			py[i] = dot(dir, y)
		}
		// px/py are scratch: sort in place instead of copying per
		// projection as Distance1D would.
		sort.Float64s(px)
		sort.Float64s(py)
		total += distance1DSorted(px, py, p)
	}
	return total / float64(numProjections), nil
}

// JSDivergence returns the Jensen–Shannon divergence (base e) between
// two discrete distributions of equal length. Inputs are normalized
// defensively.
func JSDivergence(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("wasserstein: histogram length %d vs %d", len(p), len(q))
	}
	pn := normalize(p)
	qn := normalize(q)
	var js float64
	for i := range pn {
		m := 0.5 * (pn[i] + qn[i])
		js += 0.5*klTerm(pn[i], m) + 0.5*klTerm(qn[i], m)
	}
	return js, nil
}

// SimilarityRaw turns a pairwise distance matrix w̃ into the paper's
// symmetrized similarity W̄: wᵢⱼ = 1/(1+w̃ᵢⱼ) (Eq. 19) followed by the
// element-wise geometric-mean symmetrization W̄ = sqrt(W ∘ Wᵀ). This is
// the matrix the Fig. 10 heatmaps display.
func SimilarityRaw(dist [][]float64) ([][]float64, error) {
	n := len(dist)
	for i := range dist {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("wasserstein: distance matrix row %d has %d cols, want %d", i, len(dist[i]), n)
		}
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = 1 / (1 + dist[i][j])
		}
	}
	bar := make([][]float64, n)
	for i := range bar {
		bar[i] = make([]float64, n)
		for j := range bar[i] {
			bar[i][j] = math.Sqrt(w[i][j] * w[j][i])
		}
	}
	return bar, nil
}

// SimilarityFromDistances composes SimilarityRaw with the row-softmax
// normalization Ŵ[i,j] = exp(W̄ᵢⱼ)/Σₙ exp(W̄ᵢₙ) (Eq. 20), producing the
// row-stochastic aggregation weights.
func SimilarityFromDistances(dist [][]float64) ([][]float64, error) {
	bar, err := SimilarityRaw(dist)
	if err != nil {
		return nil, err
	}
	n := len(bar)
	// Row softmax.
	out := make([][]float64, n)
	for i := range bar {
		out[i] = make([]float64, n)
		var maxv float64 = math.Inf(-1)
		for _, v := range bar[i] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range bar[i] {
			e := math.Exp(v - maxv)
			out[i][j] = e
			sum += e
		}
		for j := range out[i] {
			out[i][j] /= sum
		}
	}
	return out, nil
}

func normalize(p []float64) []float64 {
	out := make([]float64, len(p))
	var sum float64
	for _, v := range p {
		if v > 0 {
			sum += v
		}
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(p))
		}
		return out
	}
	for i, v := range p {
		if v > 0 {
			out[i] = v / sum
		}
	}
	return out
}

func klTerm(p, m float64) float64 {
	if p <= 0 || m <= 0 {
		return 0
	}
	return p * math.Log(p/m)
}

// randUnitInto fills v with a uniformly random unit direction.
func randUnitInto(rng *rand.Rand, v []float64) {
	var norm float64
	for i := range v {
		v[i] = rng.NormFloat64()
		norm += v[i] * v[i]
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		v[0] = 1
		return
	}
	for i := range v {
		v[i] /= norm
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
