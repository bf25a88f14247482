package aggregate

import (
	"math"
	"math/rand"
	"testing"

	"acme/internal/importance"
	"acme/internal/wasserstein"
)

func makeSets(vals ...float64) []*importance.Set {
	sets := make([]*importance.Set, len(vals))
	for i, v := range vals {
		sets[i] = &importance.Set{Layers: [][]float64{{v, v * 2}, {v * 3}}}
	}
	return sets
}

func TestCombineIdentityIsAlone(t *testing.T) {
	sets := makeSets(1, 2, 3)
	out, err := Combine(sets, identityMatrix(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		for l := range out[i].Layers {
			for j := range out[i].Layers[l] {
				if out[i].Layers[l][j] != sets[i].Layers[l][j] {
					t.Fatalf("identity combine changed device %d", i)
				}
			}
		}
	}
}

func TestCombineUniformIsMean(t *testing.T) {
	sets := makeSets(0, 3, 6)
	out, err := Combine(sets, UniformMatrix(3))
	if err != nil {
		t.Fatal(err)
	}
	// Mean of {0,3,6} = 3 in the first slot of layer 0.
	if got := out[0].Layers[0][0]; math.Abs(got-3) > 1e-12 {
		t.Fatalf("uniform combine got %v want 3", got)
	}
	// All devices receive the same set under uniform weights.
	for i := 1; i < 3; i++ {
		if out[i].Layers[0][0] != out[0].Layers[0][0] {
			t.Fatal("uniform combine must be identical across devices")
		}
	}
}

func TestCombinePreservesTotalWithStochasticWeights(t *testing.T) {
	sets := makeSets(1, 2)
	sim := [][]float64{{0.75, 0.25}, {0.4, 0.6}}
	out, err := Combine(sets, sim)
	if err != nil {
		t.Fatal(err)
	}
	want0 := 0.75*1 + 0.25*2
	if got := out[0].Layers[0][0]; math.Abs(got-want0) > 1e-12 {
		t.Fatalf("weighted combine got %v want %v", got, want0)
	}
}

func TestCombineShapeMismatch(t *testing.T) {
	sets := makeSets(1, 2)
	if _, err := Combine(sets, UniformMatrix(3)); err == nil {
		t.Fatal("expected size mismatch error")
	}
	bad := []*importance.Set{
		{Layers: [][]float64{{1}}},
		{Layers: [][]float64{{1, 2}}},
	}
	if _, err := Combine(bad, UniformMatrix(2)); err == nil {
		t.Fatal("expected layer mismatch error")
	}
}

func TestWassersteinSimilarityGroupsDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cloud := func(mu float64) [][]float64 {
		out := make([][]float64, 40)
		for i := range out {
			v := make([]float64, 6)
			for j := range v {
				v[j] = mu + 0.5*rng.NormFloat64()
			}
			out[i] = v
		}
		return out
	}
	features := [][][]float64{cloud(0), cloud(0), cloud(5)}
	dist, err := wassersteinDistances(features, 1, 24, rng)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := wasserstein.SimilarityFromDistances(dist)
	if err != nil {
		t.Fatal(err)
	}
	if sim[0][1] <= sim[0][2] {
		t.Fatalf("same-distribution weight %v not above cross %v", sim[0][1], sim[0][2])
	}
}

func TestJSSimilarityGroupsDevices(t *testing.T) {
	hists := [][]float64{
		{0.5, 0.5, 0, 0},
		{0.45, 0.55, 0, 0},
		{0, 0, 0.5, 0.5},
	}
	dist, err := jsDistances(hists)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := wasserstein.SimilarityFromDistances(dist)
	if err != nil {
		t.Fatal(err)
	}
	if sim[0][1] <= sim[0][2] {
		t.Fatalf("similar-histogram weight %v not above cross %v", sim[0][1], sim[0][2])
	}
}

func TestMatrixForAllMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	hists := [][]float64{{1, 0}, {0, 1}}
	features := [][][]float64{{{0, 0}}, {{1, 1}}}
	for _, m := range []Method{Alone, Average, JS, Wasserstein} {
		sim, err := MatrixFor(m, 2, hists, features, rng, 4)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(sim) != 2 || len(sim[0]) != 2 {
			t.Fatalf("%v: bad shape", m)
		}
		for i := range sim {
			var sum float64
			for _, v := range sim[i] {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%v: row %d sums to %v", m, i, sum)
			}
		}
	}
	if _, err := MatrixFor(Method(99), 2, hists, features, rng, 1); err == nil {
		t.Fatal("expected unknown-method error")
	}
}

func TestDistanceScaleSharpensWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hists := [][]float64{{0.6, 0.4, 0}, {0.5, 0.5, 0}, {0, 0, 1}}
	flat, err := MatrixFor(JS, 3, hists, nil, rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharp, err := MatrixFor(JS, 3, hists, nil, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	flatGap := flat[0][1] - flat[0][2]
	sharpGap := sharp[0][1] - sharp[0][2]
	if sharpGap <= flatGap {
		t.Fatalf("distance scale did not sharpen: %v vs %v", sharpGap, flatGap)
	}
}

// randomSets builds n sets with random layer values over a fixed shape.
func randomSets(rng *rand.Rand, n int, layerSizes []int) []*importance.Set {
	sets := make([]*importance.Set, n)
	for i := range sets {
		layers := make([][]float64, len(layerSizes))
		for l, sz := range layerSizes {
			layers[l] = make([]float64, sz)
			for j := range layers[l] {
				layers[l][j] = rng.NormFloat64()
			}
		}
		sets[i] = &importance.Set{Layers: layers}
	}
	return sets
}

func randomStochastic(rng *rand.Rand, n int) [][]float64 {
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		var sum float64
		for j := range sim[i] {
			sim[i][j] = rng.Float64() + 0.01
			sum += sim[i][j]
		}
		for j := range sim[i] {
			sim[i][j] /= sum
		}
	}
	return sim
}

// TestCombinerMatchesCombineBitwise asserts the streaming path's core
// property: folding uploads incrementally — even when they arrive out
// of device order — produces bitwise the same aggregates as the
// monolithic Combine.
func TestCombinerMatchesCombineBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		sets := randomSets(rng, n, []int{17, 5, 64})
		sim := randomStochastic(rng, n)
		want, err := Combine(sets, sim)
		if err != nil {
			t.Fatal(err)
		}
		comb, err := NewCombiner(sim)
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range rng.Perm(n) { // adversarial arrival order
			if err := comb.Add(pos, sets[pos]); err != nil {
				t.Fatal(err)
			}
		}
		got, _, err := comb.Result(nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for l := range want[i].Layers {
				for j := range want[i].Layers[l] {
					if want[i].Layers[l][j] != got[i].Layers[l][j] {
						t.Fatalf("trial %d: device %d layer %d entry %d: %v vs %v",
							trial, i, l, j, want[i].Layers[l][j], got[i].Layers[l][j])
					}
				}
			}
		}
	}
}

// TestCombinerFusedDeltaMatchesSetsDelta asserts the convergence
// number the combiner reports equals the standalone SetsDelta.
func TestCombinerFusedDeltaMatchesSetsDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 4
	sim := randomStochastic(rng, n)
	prevSets := randomSets(rng, n, []int{9, 30})
	prev, err := Combine(prevSets, sim)
	if err != nil {
		t.Fatal(err)
	}
	curSets := randomSets(rng, n, []int{9, 30})
	comb, err := NewCombiner(sim)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range curSets {
		if err := comb.Add(i, s); err != nil {
			t.Fatal(err)
		}
	}
	cur, delta, err := comb.Result(prev)
	if err != nil {
		t.Fatal(err)
	}
	if want := SetsDelta(prev, cur); delta != want {
		t.Fatalf("fused delta %v, standalone %v", delta, want)
	}
}

// TestCombinerRejectsDuplicatesAndBadShapes covers the error paths a
// retransmitting or byzantine device would hit.
func TestCombinerRejectsDuplicatesAndBadShapes(t *testing.T) {
	sets := makeSets(1, 2, 3)
	comb, err := NewCombiner(UniformMatrix(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := comb.Add(0, sets[0]); err != nil {
		t.Fatal(err)
	}
	if err := comb.Add(0, sets[1]); err == nil {
		t.Fatal("duplicate position accepted")
	}
	if err := comb.Add(3, sets[1]); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	if err := comb.Add(1, nil); err == nil {
		t.Fatal("nil set accepted")
	}
	bad := &importance.Set{Layers: [][]float64{{1}}}
	if err := comb.Add(1, bad); err == nil {
		t.Fatal("layer-count mismatch accepted")
	}
	badLen := &importance.Set{Layers: [][]float64{{1, 2, 3}, {4}}}
	if err := comb.Add(1, badLen); err == nil {
		t.Fatal("layer-length mismatch accepted")
	}
	if _, _, err := comb.Result(nil); err == nil {
		t.Fatal("incomplete combiner finalized")
	}
	if err := comb.Add(1, sets[1]); err != nil {
		t.Fatal(err)
	}
	if err := comb.Add(2, sets[2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := comb.Result(nil); err != nil {
		t.Fatal(err)
	}
	// A bad similarity matrix is rejected at construction.
	if _, err := NewCombiner([][]float64{{1, 0}, {0.5}}); err == nil {
		t.Fatal("ragged similarity matrix accepted")
	}
}

// TestSetsDeltaEdgeCases drives the convergence monitor through every
// malformed comparison: all must report +Inf (never converged, never
// panic).
func TestSetsDeltaEdgeCases(t *testing.T) {
	a := makeSets(1, 2)
	cases := map[string][2][]*importance.Set{
		"both empty":        {nil, nil},
		"prev empty":        {nil, a},
		"cur empty":         {a, nil},
		"length mismatch":   {a, makeSets(1)},
		"nil set":           {a, {nil, a[1]}},
		"layer count":       {a, {{Layers: [][]float64{{1, 2}}}, a[1]}},
		"layer len":         {a, {{Layers: [][]float64{{1}, {3}}}, a[1]}},
		"zero denominators": {[]*importance.Set{{Layers: [][]float64{{0, 0}, {0}}}}, []*importance.Set{{Layers: [][]float64{{1, 2}, {3}}}}},
	}
	for name, c := range cases {
		if d := SetsDelta(c[0], c[1]); !math.IsInf(d, 1) {
			t.Fatalf("%s: delta %v, want +Inf", name, d)
		}
	}
	if d := SetsDelta(a, a); d != 0 {
		t.Fatalf("identical sets delta %v", d)
	}
}
