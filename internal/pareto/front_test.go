package pareto

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExactFrontNonDominated(t *testing.T) {
	cands := syntheticCandidates()
	front := ExactFront(cands)
	if len(front) == 0 {
		t.Fatal("empty exact front")
	}
	for _, i := range front {
		for j := range cands {
			if i != j && dominates(cands[j], cands[i]) {
				t.Fatalf("front member %d dominated by %d", i, j)
			}
		}
	}
	// Every non-front candidate must be dominated by someone.
	inFront := map[int]bool{}
	for _, i := range front {
		inFront[i] = true
	}
	for i := range cands {
		if inFront[i] {
			continue
		}
		dominated := false
		for j := range cands {
			if i != j && dominates(cands[j], cands[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			t.Fatalf("candidate %d missing from the exact front", i)
		}
	}
}

func TestHypervolumeSinglePoint(t *testing.T) {
	pool := []Candidate{
		{Loss: 0, Energy: 0, Size: 0},
		{Loss: 1, Energy: 1, Size: 1},
	}
	// The ideal corner dominates everything: hypervolume 1.
	if hv := hypervolume([]int{0}, pool); math.Abs(hv-1) > 1e-9 {
		t.Fatalf("ideal-point hypervolume %v want 1", hv)
	}
	// The worst corner dominates nothing.
	if hv := hypervolume([]int{1}, pool); hv != 0 {
		t.Fatalf("worst-point hypervolume %v want 0", hv)
	}
}

func TestHypervolumeMidPoint(t *testing.T) {
	pool := []Candidate{
		{Loss: 0, Energy: 0, Size: 0},
		{Loss: 1, Energy: 1, Size: 1},
		{Loss: 0.5, Energy: 0.5, Size: 0.5},
	}
	if hv := hypervolume([]int{2}, pool); math.Abs(hv-0.125) > 1e-9 {
		t.Fatalf("midpoint hypervolume %v want 0.125", hv)
	}
}

// TestHypervolumeMonotone: adding points never decreases hypervolume.
func TestHypervolumeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]Candidate, 12)
		for i := range pool {
			pool[i] = Candidate{
				Loss:   rng.Float64(),
				Energy: rng.Float64(),
				Size:   rng.Float64(),
			}
		}
		subset := []int{0, 1, 2, 3}
		larger := []int{0, 1, 2, 3, 4, 5, 6}
		return hypervolume(larger, pool) >= hypervolume(subset, pool)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGridFrontNearExactFront: the PFG approximates the exact front —
// its hypervolume must be close (grid resolution K bounds the loss).
func TestGridFrontNearExactFront(t *testing.T) {
	cands := syntheticCandidates()
	g, err := Build(cands, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	exact := ExactFront(cands)
	hvExact := hypervolume(exact, cands)
	hvGrid := hypervolume(g.Front, cands)
	if hvExact <= 0 {
		t.Fatal("degenerate exact front")
	}
	if hvGrid < 0.85*hvExact {
		t.Fatalf("grid front hypervolume %.4f below 85%% of exact %.4f", hvGrid, hvExact)
	}
	if hvGrid > hvExact+1e-9 {
		t.Fatalf("grid front hypervolume %.4f exceeds exact %.4f", hvGrid, hvExact)
	}
}

func TestHypervolumeEmpty(t *testing.T) {
	if hv := hypervolume(nil, syntheticCandidates()); hv != 0 {
		t.Fatalf("empty subset hypervolume %v", hv)
	}
}

// point3 is a normalized objective point.
type point3 struct{ x, y, z float64 }

// hypervolume computes the dominated hypervolume of a candidate subset
// against a reference (worst-case) point, with all three objectives
// min-max normalized over the full pool. Larger is better. The measure
// is the standard multi-objective front-quality indicator;
// TestGridFrontNearExactFront uses it to compare the grid-approximated
// front with the exact one.
//
// Computed by inclusion of axis-aligned boxes via a simple sweep over
// the loss dimension — O(n² ) after sorting, plenty for lattice-sized
// fronts.
func hypervolume(indices []int, pool []Candidate) float64 {
	if len(indices) == 0 {
		return 0
	}
	var lo, hi [3]float64
	for l := 0; l < 3; l++ {
		lo[l], hi[l] = math.Inf(1), math.Inf(-1)
	}
	for _, c := range pool {
		for l := 0; l < 3; l++ {
			v := c.objective(l)
			lo[l] = math.Min(lo[l], v)
			hi[l] = math.Max(hi[l], v)
		}
	}
	norm := func(c Candidate, l int) float64 {
		span := hi[l] - lo[l]
		if span <= 0 {
			return 0
		}
		return (c.objective(l) - lo[l]) / span
	}

	// Points in normalized [0,1]³ minimization space; reference (1,1,1).
	pts := make([]point3, 0, len(indices))
	for _, i := range indices {
		pts = append(pts, point3{norm(pool[i], 0), norm(pool[i], 1), norm(pool[i], 2)})
	}
	// Sweep over x: sort ascending, each slab [x_i, x_next) contributes
	// slabWidth × (2-D hypervolume of the y-z front of points with
	// x ≤ x_i).
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j].x < pts[j-1].x; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	var volume float64
	for i := range pts {
		xNext := 1.0
		if i+1 < len(pts) {
			xNext = pts[i+1].x
		}
		width := xNext - pts[i].x
		if width <= 0 {
			continue
		}
		volume += width * area2D(pts[:i+1])
	}
	return volume
}

// area2D computes the area dominated by (y, z) points against reference
// (1, 1), minimization: the union of rectangles [yᵢ,1]×[zᵢ,1].
func area2D(pts []point3) float64 {
	// Keep the non-dominated (y, z) pairs, sorted by y ascending — z is
	// then strictly decreasing along the front.
	type yz struct{ y, z float64 }
	var front []yz
	for _, p := range pts {
		dominated := false
		for _, q := range pts {
			if (q.y < p.y && q.z <= p.z) || (q.y <= p.y && q.z < p.z) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, yz{p.y, p.z})
		}
	}
	for i := 1; i < len(front); i++ {
		for j := i; j > 0 && front[j].y < front[j-1].y; j-- {
			front[j], front[j-1] = front[j-1], front[j]
		}
	}
	// Each point adds the horizontal strip between the previous z level
	// and its own, spanning [yᵢ, 1].
	var area float64
	prevZ := 1.0
	for _, p := range front {
		if p.z >= prevZ {
			continue // duplicate y with worse z
		}
		area += (1 - p.y) * (prevZ - p.z)
		prevZ = p.z
	}
	return area
}
