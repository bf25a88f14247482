package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"acme/internal/importance"
	"acme/internal/nn"
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

// TestCombinerReusesSpares: each round's accumulators are cut from the
// storage the round before last gave back when its result came back to
// the next combiner as prev. They start dirty, as that round's caller
// left them, and still equal Combine's bit for bit, full and partial.
// One lease per row is out between rounds, and none once the last
// result is released.
func TestCombinerReusesSpares(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, rounds = 6, 5
	sim := randomStochastic(rng, n)
	for _, partial := range []bool{false, true} {
		lent := nn.Lent()
		var prev []*importance.Set
		storage := make([]map[*float64]bool, rounds)
		for r := range rounds {
			sets := randomSets(rng, n, []int{17, 5, 64})
			comb, err := NewCombiner(sim)
			if err != nil {
				t.Fatal(err)
			}
			present := make([]bool, n)
			for p := range sets {
				if partial && p == r%n {
					continue
				}
				present[p] = true
				if err := comb.Add(p, sets[p]); err != nil {
					t.Fatal(err)
				}
			}
			label := fmt.Sprintf("partial=%v round %d", partial, r)
			var got []*importance.Set
			if partial {
				got, _, _, err = comb.ResultPartial(prev)
				requireSameSets(t, label, partialOracle(t, sets, sim, present), got)
			} else {
				var want []*importance.Set
				if want, err = Combine(sets, sim); err != nil {
					t.Fatal(err)
				}
				got, _, err = comb.Result(prev)
				requireSameSets(t, label, want, got)
			}
			if err != nil {
				t.Fatal(err)
			}
			if d := nn.Lent() - lent; d != n {
				t.Fatalf("%s: %d leases out, want one per row (%d)", label, d, n)
			}
			storage[r] = map[*float64]bool{}
			for _, s := range got {
				storage[r][&s.Layers[0][0]] = true
				for _, l := range s.Layers {
					for k := range l {
						l[k] = math.NaN()
					}
				}
			}
			if r >= 2 && !reflect.DeepEqual(storage[r], storage[r-2]) {
				t.Errorf("%s: accumulators are not the storage round %d gave back", label, r-2)
			}
			prev = got
		}
		importance.ReleaseAll(prev)
		if d := nn.Lent() - lent; d != 0 {
			t.Errorf("partial=%v: %d leases out after the last result's release", partial, d)
		}
	}
}

// TestCombinerLoopStaysFlat plays ten rounds the way a caller with no
// bookkeeping does, exchange-replay's loop in small: a fresh combiner
// per round, every upload added, and the result taken with the round
// before's result as prev, then read. nn.Lent() must stay flat (one
// lease per computed row, every round) and every round must equal
// Combine bit for bit: through Result, through ResultPartial with a few
// positions missing, and through NewCombinerFor with a quarter of the
// rows read and nil elsewhere.
func TestCombinerLoopStaysFlat(t *testing.T) {
	const n, rounds = 64, 10
	for _, mode := range []string{"result", "partial", "rows"} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(22))
			sim := randomStochastic(rng, n)
			lent := nn.Lent()
			var prev []*importance.Set
			for r := range rounds {
				sets := randomSets(rng, n, []int{1500, 3, 700})
				present := make([]bool, n)
				for p := range present {
					present[p] = mode != "partial" || p%9 != r%9
				}
				var read []bool
				rows := n
				if mode == "rows" {
					read, rows = make([]bool, n), n/4
					for _, i := range rng.Perm(n)[:rows] {
						read[i] = true
					}
				}
				comb, err := NewCombinerFor(sim, read)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range rng.Perm(n) {
					if present[p] {
						if err := comb.Add(p, sets[p]); err != nil {
							t.Fatal(err)
						}
					}
				}
				var got, want []*importance.Set
				if mode == "partial" {
					got, _, _, err = comb.ResultPartial(prev)
					want = partialOracle(t, sets, sim, present)
				} else {
					got, _, err = comb.Result(prev)
					if err == nil {
						want, err = Combine(sets, sim)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("round %d", r)
				if mode == "rows" {
					requireMaskedRows(t, label, read, want, got)
				} else {
					requireSameSets(t, label, want, got)
				}
				if d := nn.Lent() - lent; d != rows {
					t.Fatalf("%s: %d leases out, want %d", label, d, rows)
				}
				prev = got
			}
			importance.ReleaseAll(prev)
			if d := nn.Lent() - lent; d != 0 {
				t.Errorf("%d leases out after the last result's release", d)
			}
		})
	}
}

// TestResultLeavesUnleasedPrev: a prev that was never leased, like the
// sets a restored edge decodes from its snapshot, is only read: Result
// and ResultPartial measure the delta against it and leave every value
// and every lease count as it was.
func TestResultLeavesUnleasedPrev(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 5
	sim := randomStochastic(rng, n)
	shape := []int{9, 30}
	for _, partial := range []bool{false, true} {
		prev := randomSets(rng, n, shape)
		kept := make([]*importance.Set, n)
		for i, s := range prev {
			kept[i] = &importance.Set{Layers: make([][]float64, len(s.Layers))}
			for l, row := range s.Layers {
				kept[i].Layers[l] = slices.Clone(row)
			}
		}
		comb, err := NewCombiner(sim)
		if err != nil {
			t.Fatal(err)
		}
		for p, s := range randomSets(rng, n, shape) {
			if !partial || p != 1 {
				if err := comb.Add(p, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		lent := nn.Lent()
		var got []*importance.Set
		var delta float64
		if partial {
			got, _, delta, err = comb.ResultPartial(prev)
		} else {
			got, delta, err = comb.Result(prev)
		}
		if err != nil {
			t.Fatal(err)
		}
		if nn.Lent() != lent {
			t.Errorf("partial=%v: the result moved nn.Lent() by %d", partial, nn.Lent()-lent)
		}
		requireSameSets(t, fmt.Sprintf("partial=%v prev", partial), kept, prev)
		if want := SetsDelta(kept, got); delta != want {
			t.Errorf("partial=%v: delta %v, want %v", partial, delta, want)
		}
		importance.ReleaseAll(got)
	}
}

// TestCombinerReleaseGivesBackAbandoned: a combiner dropped before its
// result (a gather that failed midway) gives its accumulators back at
// Release; after a result, Release leaves the caller's sets alone, and
// on a nil combiner it does nothing.
func TestCombinerReleaseGivesBackAbandoned(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sets := randomSets(rng, 6, []int{17, 5})
	sim := randomStochastic(rng, 6)
	lent := nn.Lent()
	comb, err := NewCombiner(sim)
	if err != nil {
		t.Fatal(err)
	}
	for p := range 3 {
		if err := comb.Add(p, sets[p]); err != nil {
			t.Fatal(err)
		}
	}
	if d := nn.Lent() - lent; d != 6 {
		t.Fatalf("%d leases out mid-gather, want 6", d)
	}
	comb.Release()
	comb.Release()
	var none *Combiner
	none.Release()
	if d := nn.Lent() - lent; d != 0 {
		t.Fatalf("%d leases out after the abandoned combiner's Release", d)
	}

	if comb, err = NewCombiner(sim); err != nil {
		t.Fatal(err)
	}
	for p, s := range sets {
		if err := comb.Add(p, s); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := comb.Result(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Combine(sets, sim)
	if err != nil {
		t.Fatal(err)
	}
	comb.Release()
	requireSameSets(t, "after Release", want, got)
	if d := nn.Lent() - lent; d != 6 {
		t.Fatalf("%d leases out after a result's Release, want the result's 6", d)
	}
	importance.ReleaseAll(got)
}

// warmRoundAllocs is what a warm round of TestCombinerWarmRoundAllocates
// allocates at GOMAXPROCS 1: the combiner, its row and pending lists and
// its bound fold (4), its accumulator list (1), and SetsDelta's parts
// and their closure (2). No accumulator is among them: each one's slab
// and header come back from the round before last through Result.
const warmRoundAllocs = 7

// TestCombinerWarmRoundAllocates: once the pool holds a round's
// accumulators, a round of 64 uploads — a fresh combiner, the adds and
// the result against the round before's — allocates warmRoundAllocs
// objects.
func TestCombinerWarmRoundAllocates(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("-race allocates on its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(25))
	const n = 64
	sets := randomSets(rng, n, []int{1500, 3, 700})
	sim := randomStochastic(rng, n)
	var prev []*importance.Set
	var err error
	round := func() {
		comb, e := NewCombiner(sim)
		if e == nil {
			for p, s := range sets {
				if e = comb.Add(p, s); e != nil {
					break
				}
			}
		}
		if e == nil {
			prev, _, e = comb.Result(prev)
		}
		if e != nil {
			err = e
		}
	}
	round()
	allocs := testing.AllocsPerRun(10, round)
	if err != nil {
		t.Fatal(err)
	}
	importance.ReleaseAll(prev)
	if allocs != warmRoundAllocs {
		t.Errorf("%v allocations per warm round, want %d", allocs, warmRoundAllocs)
	}
}
