package wasserstein

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDistance1DIdentical(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if d := Distance1D(xs, xs, 1); d > 1e-9 {
		t.Fatalf("W1(x,x)=%v", d)
	}
}

func TestDistance1DShift(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{2, 3, 4, 5}
	// Shifting a distribution by c moves W1 by exactly c.
	if d := Distance1D(xs, ys, 1); math.Abs(d-2) > 1e-9 {
		t.Fatalf("W1 of +2 shift = %v, want 2", d)
	}
}

func TestDistance1DSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 5+rng.Intn(20))
		ys := make([]float64, 5+rng.Intn(20))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		for i := range ys {
			ys[i] = 1 + 2*rng.NormFloat64()
		}
		return math.Abs(Distance1D(xs, ys, 1)-Distance1D(ys, xs, 1)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDistance1DTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gen := func(mu float64) []float64 {
			v := make([]float64, 32)
			for i := range v {
				v[i] = mu + rng.NormFloat64()
			}
			return v
		}
		a, b, c := gen(0), gen(1), gen(3)
		ab := Distance1D(a, b, 1)
		bc := Distance1D(b, c, 1)
		ac := Distance1D(a, c, 1)
		return ac <= ab+bc+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSlicedSeparatesDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cloud := func(mu float64) [][]float64 {
		out := make([][]float64, 60)
		for i := range out {
			v := make([]float64, 8)
			for j := range v {
				v[j] = mu + rng.NormFloat64()
			}
			out[i] = v
		}
		return out
	}
	a1, a2, b := cloud(0), cloud(0), cloud(3)
	near, err := Sliced(a1, a2, 1, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	far, err := Sliced(a1, b, 1, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	if near >= far {
		t.Fatalf("near %.3f ≥ far %.3f", near, far)
	}
}

func TestSlicedEmptyInput(t *testing.T) {
	if _, err := Sliced(nil, [][]float64{{1}}, 1, 4, rand.New(rand.NewSource(2))); err == nil {
		t.Fatal("expected error on empty set")
	}
}

func TestJSDivergenceProperties(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	q := []float64{0, 0.5, 0.5}
	js, err := JSDivergence(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if js <= 0 || js > math.Log(2)+1e-9 {
		t.Fatalf("JS=%v outside (0, ln2]", js)
	}
	self, _ := JSDivergence(p, p)
	if self > 1e-12 {
		t.Fatalf("JS(p,p)=%v", self)
	}
	sym1, _ := JSDivergence(p, q)
	sym2, _ := JSDivergence(q, p)
	if math.Abs(sym1-sym2) > 1e-12 {
		t.Fatal("JS must be symmetric")
	}
}

func TestJSDivergenceLengthMismatch(t *testing.T) {
	if _, err := JSDivergence([]float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestSimilarityFromDistancesRowStochastic(t *testing.T) {
	dist := [][]float64{
		{0, 1, 5},
		{1, 0, 4},
		{5, 4, 0},
	}
	sim, err := SimilarityFromDistances(dist)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range sim {
		var sum float64
		for _, v := range row {
			if v <= 0 {
				t.Fatalf("non-positive weight at row %d", i)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	// Closer pairs must get higher weights.
	if sim[0][1] <= sim[0][2] {
		t.Fatalf("closer device got smaller weight: %v vs %v", sim[0][1], sim[0][2])
	}
}

func TestSimilarityRawSymmetric(t *testing.T) {
	dist := [][]float64{
		{0, 2, 3},
		{2.5, 0, 1}, // deliberately asymmetric input
		{3, 1, 0},
	}
	raw, err := SimilarityRaw(dist)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		for j := range raw {
			if math.Abs(raw[i][j]-raw[j][i]) > 1e-12 {
				t.Fatalf("W̄ not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestSimilarityBadShape(t *testing.T) {
	if _, err := SimilarityFromDistances([][]float64{{0, 1}}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := quantile(sorted, 0.5); math.Abs(q-5) > 1e-9 {
		t.Fatalf("median of {0,10} = %v", q)
	}
}

// TestSlicerMatchesSliced: one Slicer over pairs of different sizes and
// dimensions gives Sliced's distances bit for bit, its scratch reused
// from pair to pair.
func TestSlicerMatchesSliced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cloud := func(n, dim int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, dim)
			for j := range out[i] {
				out[i][j] = rng.NormFloat64()
			}
		}
		return out
	}
	pairs := [][2][][]float64{
		{cloud(40, 8), cloud(30, 8)},
		{cloud(5, 3), cloud(9, 3)},
		{cloud(60, 16), cloud(60, 16)},
		{cloud(7, 3), cloud(2, 3)},
	}
	var s Slicer
	for i, pr := range pairs {
		want, err := Sliced(pr[0], pr[1], 1, 24, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Distance(pr[0], pr[1], 1, 24, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pair %d: Slicer %v, Sliced %v", i, got, want)
		}
	}
	if _, err := s.Distance(nil, pairs[0][1], 1, 4, rng); err == nil {
		t.Fatal("expected error on empty set")
	}
}
