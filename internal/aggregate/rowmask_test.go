package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"acme/internal/importance"
)

// rowMasks is every read set the oracle drives a combiner of n rows
// through: every row (as flags and as nil), one row, a seeded tenth of
// them (a sampled round's invitees), and the last row alone, which
// leaves row 0 — where the shape reference used to live — uncomputed.
func rowMasks(rng *rand.Rand, n int) map[string][]bool {
	all, one, tenth, last := make([]bool, n), make([]bool, n), make([]bool, n), make([]bool, n)
	for i := range all {
		all[i] = true
	}
	one[rng.Intn(n)] = true
	for _, i := range rng.Perm(n)[:(n+9)/10] {
		tenth[i] = true
	}
	last[n-1] = true
	return map[string][]bool{"nil": nil, "all": all, "one": one, "tenth": tenth, "last": last}
}

// requireMaskedRows: rows the mask selects equal want's bit for bit,
// every other row is nil.
func requireMaskedRows(t *testing.T, label string, read []bool, want, got []*importance.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if read != nil && !read[i] {
			if got[i] != nil {
				t.Fatalf("%s: row %d computed though nobody reads it", label, i)
			}
			continue
		}
		if got[i] == nil {
			t.Fatalf("%s: requested row %d is nil", label, i)
		}
		requireSameSets(t, fmt.Sprintf("%s row %d", label, i), want[i:i+1], got[i:i+1])
	}
}

// TestCombinerRowMaskMatchesCombineBitwise: a combiner told which rows
// are read computes those rows exactly as Combine (full rounds) or the
// ascending AddScaled fold of the present subset over its mass (quorum
// rounds) does, and nothing else. The pool is forced to split so the
// masked fold and renormalization run on several goroutines under the
// race step.
func TestCombinerRowMaskMatchesCombineBitwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{4, 5, 13, 64, 100} {
		shape := []int{17, 5, 64}
		if n >= 64 {
			shape = []int{600, 3, 200}
		}
		for _, specials := range []bool{false, true} {
			sets := randomSets(rng, n, shape)
			sim := randomStochastic(rng, n)
			if specials {
				seedSpecials(rng, sets, sim)
			}
			full, err := Combine(sets, sim)
			if err != nil {
				t.Fatal(err)
			}
			// A quorum round with gaps at both ends and inside groups.
			present := make([]bool, n)
			for p := range present {
				present[p] = p != 0 && p != n-1 && p%5 != 2
			}
			partial := partialOracle(t, sets, sim, present)
			prev := sets // any full previous round will do: the delta must still be +Inf
			for maskName, read := range rowMasks(rng, n) {
				masked := false
				for _, r := range read {
					masked = masked || !r
				}
				for orderName, order := range arrivalOrders(rng, n) {
					label := fmt.Sprintf("n=%d specials=%v mask=%s %s", n, specials, maskName, orderName)

					comb, err := NewCombinerFor(sim, read)
					if err != nil {
						t.Fatal(err)
					}
					for _, pos := range order {
						if err := comb.Add(pos, sets[pos]); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
					got, delta, err := comb.Result(prev)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireMaskedRows(t, label+" full", read, full, got)
					if masked && !math.IsInf(delta, 1) {
						t.Fatalf("%s: masked result has convergence delta %v, want +Inf", label, delta)
					}
					if masked && !math.IsInf(SetsDelta(got, got), 1) {
						t.Fatalf("%s: SetsDelta over a masked result is finite", label)
					}

					comb, err = NewCombinerFor(sim, read)
					if err != nil {
						t.Fatal(err)
					}
					count := 0
					for _, pos := range order {
						if !present[pos] {
							continue
						}
						count++
						if err := comb.Add(pos, sets[pos]); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
					got, arrived, delta, err := comb.ResultPartial(prev)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if arrived != count {
						t.Fatalf("%s: present %d, want %d", label, arrived, count)
					}
					requireMaskedRows(t, label+" partial", read, partial, got)
					if masked && !math.IsInf(delta, 1) {
						t.Fatalf("%s: masked quorum result has convergence delta %v, want +Inf", label, delta)
					}
				}
			}
		}
	}
}

// TestCombinerRowMaskKeepsAddChecks: which rows are read changes
// nothing about which uploads are accepted — range, duplicate (buffered
// and folded), nil and shape are all still refused at Add, also when row
// 0 is not computed.
func TestCombinerRowMaskKeepsAddChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	sets := randomSets(rng, 8, []int{6, 2})
	read := make([]bool, 8)
	read[7] = true
	comb, err := NewCombinerFor(UniformMatrix(8), read)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{-1, 8} {
		if err := comb.Add(p, sets[0]); err == nil {
			t.Fatalf("position %d accepted", p)
		}
	}
	if err := comb.Add(3, nil); err == nil {
		t.Fatal("nil set accepted")
	}
	for _, p := range []int{0, 1, 5} {
		if err := comb.Add(p, sets[p]); err != nil {
			t.Fatal(err)
		}
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
	if err := comb.Add(1, sets[1]); err == nil {
		t.Fatal("duplicate for folded position accepted")
	}
	if _, err := NewCombinerFor(UniformMatrix(8), make([]bool, 7)); err == nil {
		t.Fatal("read flags of the wrong length accepted")
	}
	// No row read at all is a legal, empty request.
	comb, err = NewCombinerFor(UniformMatrix(8), make([]bool, 8))
	if err != nil {
		t.Fatal(err)
	}
	for p := range sets {
		if err := comb.Add(p, sets[p]); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := comb.Result(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if s != nil {
			t.Fatalf("row %d computed with no row read", i)
		}
	}
}
