package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"acme/internal/importance"
)

// sameBits is the oracle's equality: identical bit patterns, with any
// two NaNs equal (as internal/tensor/kernel_ref_test.go has it).
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}

func requireSameSets(t *testing.T, label string, want, got []*importance.Set) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d sets, want %d", label, len(got), len(want))
	}
	for i := range want {
		for l := range want[i].Layers {
			for k, w := range want[i].Layers[l] {
				if g := got[i].Layers[l][k]; !sameBits(w, g) {
					t.Fatalf("%s: output %d layer %d entry %d: got %v (%#x), want %v (%#x)",
						label, i, l, k, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

// partialOracle is ResultPartial's contract written with Combine's own
// loop: fold the present positions in ascending order with AddScaled,
// then divide each output by its present similarity mass.
func partialOracle(t *testing.T, sets []*importance.Set, sim [][]float64, present []bool) []*importance.Set {
	t.Helper()
	out := make([]*importance.Set, len(sets))
	for i := range out {
		acc := sets[0].ZeroClone()
		var mass float64
		for j, ok := range present {
			if !ok {
				continue
			}
			if err := acc.AddScaled(sim[i][j], sets[j]); err != nil {
				t.Fatal(err)
			}
			mass += sim[i][j]
		}
		if !(mass <= 0) { // a NaN mass scales too, as in ResultPartial
			acc.Scale(1 / mass)
		}
		out[i] = acc
	}
	return out
}

// arrivalOrders is every order the oracle drives a combiner of n
// positions through: in order (a group folds on its fourth member),
// reversed (position 0 last, so everything is pending until then), and
// seeded permutations.
func arrivalOrders(rng *rand.Rand, n int) map[string][]int {
	asc, desc := make([]int, n), make([]int, n)
	for p := range asc {
		asc[p], desc[p] = p, n-1-p
	}
	return map[string][]int{"ascending": asc, "descending": desc, "perm-a": rng.Perm(n), "perm-b": rng.Perm(n), "perm-c": rng.Perm(n)}
}

// seedSpecials overwrites scattered entries and weights with the values
// a skipped or reordered multiply-add would treat differently: both
// zeros, both infinities and NaN. About one term in 3n is special, so
// whatever n is most outputs meet one or two of them and stay distinct
// instead of all collapsing to NaN.
func seedSpecials(rng *rand.Rand, sets []*importance.Set, sim [][]float64) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	rare := 3 * len(sets)
	for _, s := range sets {
		for _, layer := range s.Layers {
			for k := range layer {
				if rng.Intn(rare) == 0 {
					layer[k] = specials[rng.Intn(len(specials))]
				}
			}
		}
	}
	for _, row := range sim {
		for j := range row {
			if rng.Intn(rare) == 0 {
				row[j] = specials[rng.Intn(len(specials))]
			}
		}
	}
}

// TestCombinerGroupedFoldMatchesCombineBitwise widens
// TestCombinerMatchesCombineBitwise to every remainder of n modulo the
// fold group, every arrival pattern, and non-finite values. The pool is
// forced to split so the grouped fold runs on several goroutines (the
// race step relies on this test for that), and n = 64 with a few
// thousand entries is the replay's shape in small.
func TestCombinerGroupedFoldMatchesCombineBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 64} {
		shape := []int{17, 5, 64}
		if n == 64 {
			shape = []int{1500, 3, 700}
		}
		for _, specials := range []bool{false, true} {
			sets := randomSets(rng, n, shape)
			sim := randomStochastic(rng, n)
			if specials {
				seedSpecials(rng, sets, sim)
			}
			want, err := Combine(sets, sim)
			if err != nil {
				t.Fatal(err)
			}
			for name, order := range arrivalOrders(rng, n) {
				label := fmt.Sprintf("n=%d specials=%v %s", n, specials, name)
				comb, err := NewCombiner(sim)
				if err != nil {
					t.Fatal(err)
				}
				for k, pos := range order {
					if err := comb.Add(pos, sets[pos]); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if comb.Added() != k+1 {
						t.Fatalf("%s: Added() = %d after %d adds", label, comb.Added(), k+1)
					}
				}
				got, _, err := comb.Result(nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireSameSets(t, label, want, got)
				for p, s := range comb.pending {
					if s != nil {
						t.Fatalf("%s: position %d still buffered after Result", label, p)
					}
				}
			}
		}
	}
}

// TestResultPartialGroupedMatchesOracleBitwise drops positions at group
// boundaries, inside groups and at both ends, so the flush groups across
// gaps, and requires the renormalized fold of the present subset bit for
// bit.
func TestResultPartialGroupedMatchesOracleBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cases := []struct {
		n       int
		missing []int
	}{
		{5, []int{1, 3}},
		{8, []int{3}},            // last of the first group: nothing folds before the flush
		{8, []int{4}},            // first of the second group: one group folds in Add
		{9, []int{0}},            // everything is pending at the cutoff
		{9, []int{8}},            // two full groups fold in Add, nothing is left
		{13, []int{2, 5, 6, 11}}, // the flush groups across three gaps
		{13, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}},
		{64, []int{7, 8, 31, 32, 33, 63}},
	}
	for _, c := range cases {
		for _, specials := range []bool{false, true} {
			sets := randomSets(rng, c.n, []int{17, 5, 64})
			sim := randomStochastic(rng, c.n)
			if specials {
				seedSpecials(rng, sets, sim)
			}
			present := make([]bool, c.n)
			for p := range present {
				present[p] = true
			}
			for _, p := range c.missing {
				present[p] = false
			}
			want := partialOracle(t, sets, sim, present)
			for name, order := range arrivalOrders(rng, c.n) {
				label := fmt.Sprintf("n=%d missing=%v specials=%v %s", c.n, c.missing, specials, name)
				comb, err := NewCombiner(sim)
				if err != nil {
					t.Fatal(err)
				}
				for _, pos := range order {
					if !present[pos] {
						continue
					}
					if err := comb.Add(pos, sets[pos]); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				got, count, _, err := comb.ResultPartial(nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if count != c.n-len(c.missing) {
					t.Fatalf("%s: present %d, want %d", label, count, c.n-len(c.missing))
				}
				requireSameSets(t, label, want, got)
			}
		}
	}
}

// TestCombinerDeferredFoldKeepsAddChecks covers what buffering could
// have broken: with eight positions nothing folds before the fourth
// consecutive one arrives, and every rejection still happens at Add.
func TestCombinerDeferredFoldKeepsAddChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sets := randomSets(rng, 8, []int{6, 2})
	comb, err := NewCombiner(UniformMatrix(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 1, 5} {
		if err := comb.Add(p, sets[p]); err != nil {
			t.Fatal(err)
		}
	}
	if comb.next != 0 {
		t.Fatalf("folded through position %d with the first group incomplete", comb.next)
	}
	if comb.Added() != 3 {
		t.Fatalf("Added() = %d with three positions buffered", comb.Added())
	}
	for _, p := range []int{0, 1, 5} {
		if err := comb.Add(p, sets[p]); err == nil {
			t.Fatalf("duplicate for buffered position %d accepted", p)
		}
	}
	for name, bad := range map[string]*importance.Set{
		"layer count":  {Layers: [][]float64{{1, 2, 3, 4, 5, 6}}},
		"layer length": {Layers: [][]float64{{1, 2, 3, 4, 5, 6}, {7}}},
	} {
		if err := comb.Add(2, bad); err == nil {
			t.Fatalf("%s mismatch accepted at Add", name)
		}
		if comb.pending[2] != nil || comb.Added() != 3 {
			t.Fatalf("%s mismatch was buffered", name)
		}
	}
	if _, _, err := comb.Result(nil); err == nil {
		t.Fatal("incomplete combiner finalized")
	}
	for _, p := range []int{2, 3} {
		if err := comb.Add(p, sets[p]); err != nil {
			t.Fatal(err)
		}
	}
	if comb.next != 4 {
		t.Fatalf("first group complete but folded through %d", comb.next)
	}
	if err := comb.Add(1, sets[1]); err == nil {
		t.Fatal("duplicate for folded position accepted")
	}
}

// TestCombinerReusesSpares: accumulators built on spares — a previous
// round's results, dirty, some of another shape, some nil — come out
// bit-identical to freshly allocated ones, full and partial, with every
// fitting spare taken and no other.
func TestCombinerReusesSpares(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 6
	shape := []int{17, 5, 64}
	sets := randomSets(rng, n, shape)
	sim := randomStochastic(rng, n)
	want, err := Combine(sets, sim)
	if err != nil {
		t.Fatal(err)
	}
	for _, partial := range []bool{false, true} {
		spares := randomSets(rng, 4, shape)
		spares = append(spares, nil, randomSets(rng, 1, []int{17, 5, 63})[0], randomSets(rng, 1, []int{17, 5})[0])
		fits := map[*importance.Set]bool{}
		for _, s := range spares[:4] {
			fits[s] = true
		}
		comb, err := NewCombiner(sim)
		if err != nil {
			t.Fatal(err)
		}
		comb.Reuse(spares)
		present := make([]bool, n)
		for p := range sets {
			if partial && p == 2 {
				continue
			}
			present[p] = true
			if err := comb.Add(p, sets[p]); err != nil {
				t.Fatal(err)
			}
		}
		var got []*importance.Set
		if partial {
			got, _, _, err = comb.ResultPartial(nil)
			requireSameSets(t, "partial", partialOracle(t, sets, sim, present), got)
		} else {
			got, _, err = comb.Result(nil)
			requireSameSets(t, "full", want, got)
		}
		if err != nil {
			t.Fatal(err)
		}
		reused := 0
		for _, s := range got {
			if fits[s] {
				reused++
			}
		}
		if reused != len(fits) {
			t.Errorf("partial=%v: %d of %d fitting spares reused", partial, reused, len(fits))
		}
	}
}
