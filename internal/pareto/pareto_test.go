package pareto

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// syntheticCandidates builds a lattice where loss falls and energy/size
// rise with w·d — the qualitative structure of the real sweep.
func syntheticCandidates() []Candidate {
	var cands []Candidate
	for wi := 1; wi <= 4; wi++ {
		w := float64(wi) / 4
		for d := 1; d <= 4; d++ {
			cap := w * float64(d)
			acc := 1 - math.Exp(-cap)
			cands = append(cands, Candidate{
				W: w, D: d,
				Loss:     1 - acc,
				Accuracy: acc,
				Energy:   100 * cap,
				Size:     1e6 * cap,
			})
		}
	}
	return cands
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(nil, DefaultConfig()); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("got %v", err)
	}
}

func TestGridCoordinatesWithinRange(t *testing.T) {
	g, err := Build(syntheticCandidates(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, coords := range g.Coords {
		for l := 0; l < 3; l++ {
			if coords[l] < 1 || coords[l] > g.K {
				t.Fatalf("candidate %d coord %d = %d outside [1,%d]", i, l, coords[l], g.K)
			}
		}
	}
}

func TestFrontIsNonDominated(t *testing.T) {
	g, err := Build(syntheticCandidates(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Front) == 0 {
		t.Fatal("empty front")
	}
	inFront := map[int]bool{}
	for _, i := range g.Front {
		inFront[i] = true
	}
	for _, i := range g.Front {
		for j := range g.Candidates {
			if i != j && gridDominates(g.Coords[j], g.Coords[i]) {
				t.Fatalf("front member %d is grid-dominated by %d", i, j)
			}
		}
	}
}

func TestSelectRespectsCap(t *testing.T) {
	g, err := Build(syntheticCandidates(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const cap = 2.5e6
	sel, err := g.Select(cap)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Size >= cap {
		t.Fatalf("selected size %v ≥ cap %v", sel.Size, cap)
	}
}

func TestSelectInfeasible(t *testing.T) {
	g, err := Build(syntheticCandidates(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Select(0); !errors.Is(err, ErrNoFeasible) {
		t.Fatalf("got %v", err)
	}
}

// TestSelectNeverDominatedFeasible: property — the PFG pick is never
// strictly worse in every objective than another feasible candidate.
func TestSelectNeverDominatedFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cands []Candidate
		for i := 0; i < 20; i++ {
			cands = append(cands, Candidate{
				W: rng.Float64(), D: 1 + rng.Intn(12),
				Loss:     rng.Float64(),
				Accuracy: rng.Float64(),
				Energy:   100 + 1000*rng.Float64(),
				Size:     1e6 * (1 + 10*rng.Float64()),
			})
		}
		g, err := Build(cands, DefaultConfig())
		if err != nil {
			return false
		}
		sel, err := g.Select(20e6)
		if err != nil {
			return true // no feasible candidate is acceptable
		}
		for _, c := range cands {
			if c.Size < 20e6 &&
				c.Loss < sel.Loss && c.Energy < sel.Energy && c.Size < sel.Size {
				// Strict domination in raw objective space is allowed to
				// differ from grid space only within one grid cell.
				gi := g.coord(c.Loss, 0)
				si := g.coord(sel.Loss, 0)
				if gi < si {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyAccuracyPicksBestFeasible(t *testing.T) {
	cands := syntheticCandidates()
	sel, err := GreedyAccuracy{}.Select(cands, 3e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Size < 3e6 && c.Accuracy > sel.Accuracy {
			t.Fatalf("missed better feasible candidate %v", c)
		}
	}
}

func TestGreedySizePicksLargestFeasible(t *testing.T) {
	cands := syntheticCandidates()
	sel, err := GreedySize{}.Select(cands, 3e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		if c.Size < 3e6 && c.Size > sel.Size {
			t.Fatalf("missed larger feasible candidate %v", c)
		}
	}
}

func TestRandomMatcherFeasible(t *testing.T) {
	m := &RandomMatcher{Rng: rand.New(rand.NewSource(1))}
	cands := syntheticCandidates()
	for i := 0; i < 50; i++ {
		sel, err := m.Select(cands, 2e6)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Size >= 2e6 {
			t.Fatalf("infeasible random pick %v", sel)
		}
	}
}

func TestWeightedSumRespectsCap(t *testing.T) {
	m := &WeightedSum{}
	sel, err := m.Select(syntheticCandidates(), 2e6)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Size >= 2e6 {
		t.Fatalf("infeasible weighted-sum pick %v", sel)
	}
}

func TestMatchersReturnErrNoFeasible(t *testing.T) {
	cands := syntheticCandidates()
	matchers := []Matcher{
		GreedyAccuracy{}, GreedySize{},
		&RandomMatcher{Rng: rand.New(rand.NewSource(2))},
		&WeightedSum{},
		&PFGMatcher{Cfg: DefaultConfig()},
	}
	for _, m := range matchers {
		if _, err := m.Select(cands, 0); !errors.Is(err, ErrNoFeasible) {
			t.Fatalf("%s: got %v", m.Name(), err)
		}
	}
}

func TestPFGMatcherCachesGrid(t *testing.T) {
	m := &PFGMatcher{Cfg: DefaultConfig()}
	cands := syntheticCandidates()
	a, err := m.Select(cands, 3e6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Select(cands, 3e6)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same inputs must give same selection")
	}
}

func TestSweepCandidatesOrder(t *testing.T) {
	calls := 0
	cands := SweepCandidates([]float64{1.0, 0.5}, []int{2, 1}, func(w float64, d int) Candidate {
		calls++
		return Candidate{W: w, D: d}
	})
	if calls != 4 || len(cands) != 4 {
		t.Fatalf("sweep evaluated %d candidates", calls)
	}
	if cands[0].W != 0.5 {
		t.Fatal("widths must be ascending")
	}
}
