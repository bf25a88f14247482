// Package pareto implements ACME's Phase-1 backbone customization: the
// grid-decomposed multi-objective optimization of Algorithm 1. Each
// candidate backbone architecture is a point in (loss, energy, size)
// space; the package builds the Pareto Front Grid (PFG) of Eq. 11–12,
// truncates it by the cluster's storage constraint, and selects the
// final model by grid distance to the ideal point (Eq. 13).
//
// It also implements the matching baselines of Fig. 9 (Greedy-Accuracy,
// Greedy-Size, Random) and the evaluation metrics (energy/size
// efficiency ratios and the trade-off score).
package pareto

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Candidate is one backbone architecture with its three objective
// values f¹ (task loss), f² (energy), f³ (parameter count ζ).
type Candidate struct {
	W      float64 // width factor wᴮ
	D      int     // depth dᴮ
	Loss   float64 // f¹: lower is better
	Energy float64 // f²: joules
	Size   float64 // f³: ζ(θ), parameters
	// Accuracy is carried alongside for reporting; the optimizer itself
	// uses Loss.
	Accuracy float64
}

func (c Candidate) objective(l int) float64 {
	switch l {
	case 0:
		return c.Loss
	case 1:
		return c.Energy
	default:
		return c.Size
	}
}

// Config controls grid construction.
type Config struct {
	// PerformanceWindow is γp: the acceptable performance trade-off that
	// sets the number of grid intervals K = |f¹(θ*) − f¹(θ⁻)| / γp.
	PerformanceWindow float64
}

// sigma is the σ > 0 constant of Eq. 11 that keeps a collapsed extent
// from dividing by zero.
const sigma = 1e-9

// maxIntervals caps K against degenerate windows.
const maxIntervals = 64

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config {
	return Config{PerformanceWindow: 0.05}
}

// Grid is the constructed Pareto Front Grid for one device cluster.
type Grid struct {
	K          int
	Candidates []Candidate
	// Coords[i][l] = Ψl of candidate i (Eq. 11).
	Coords [][3]int
	// Front holds indices of candidates on the grid-dominance Pareto
	// front (the union of the Φ sets).
	Front []int
	ideal [3]float64
	worst [3]float64
	r     [3]float64
}

// errors exposed for matching.
var (
	ErrNoCandidates = errors.New("pareto: no candidates")
	ErrNoFeasible   = errors.New("pareto: no candidate satisfies the storage constraint")
)

// Build constructs the PFG over candidates (Algorithm 1 lines 6–17).
func Build(cands []Candidate, cfg Config) (*Grid, error) {
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	g := &Grid{Candidates: append([]Candidate(nil), cands...)}
	for l := 0; l < 3; l++ {
		g.ideal[l] = math.Inf(1)
		g.worst[l] = math.Inf(-1)
	}
	for _, c := range g.Candidates {
		for l := 0; l < 3; l++ {
			v := c.objective(l)
			// Non-finite objective values (a diverged candidate's NaN
			// loss, an Inf energy estimate) are excluded from the grid
			// extent; coord pins them to the worst cell instead.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if v < g.ideal[l] {
				g.ideal[l] = v
			}
			if v > g.worst[l] {
				g.worst[l] = v
			}
		}
	}
	for l := 0; l < 3; l++ {
		if g.ideal[l] > g.worst[l] {
			// No finite value in this objective at all: collapse the
			// extent so the grid stays well-defined.
			g.ideal[l], g.worst[l] = 0, 0
		}
	}
	// K = |f¹(θ*) − f¹(θ⁻)| / γp, shared across objectives.
	k := 1
	if cfg.PerformanceWindow > 0 {
		k = int(math.Ceil((g.worst[0] - g.ideal[0]) / cfg.PerformanceWindow))
	}
	if k < 1 {
		k = 1
	}
	if k > maxIntervals {
		k = maxIntervals
	}
	g.K = k
	for l := 0; l < 3; l++ {
		g.r[l] = (g.worst[l] - g.ideal[l] + 2*sigma) / float64(k)
	}
	g.Coords = make([][3]int, len(g.Candidates))
	for i, c := range g.Candidates {
		for l := 0; l < 3; l++ {
			g.Coords[i][l] = g.coord(c.objective(l), l)
		}
	}
	g.Front = g.gridFront()
	return g, nil
}

// coord computes Ψl = ⌈(f − f* + σ)/r⌉ clamped to [1, K] (Eq. 11).
// Non-finite values pin to the worst cell K (converting NaN through
// int is otherwise undefined).
func (g *Grid) coord(v float64, l int) int {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return g.K
	}
	c := int(math.Ceil((v - g.ideal[l] + sigma) / g.r[l]))
	if c < 1 {
		c = 1
	}
	if c > g.K {
		c = g.K
	}
	return c
}

// gridFront returns the indices whose grid coordinates are not
// grid-dominated by any other candidate — the union of the Φ sets that
// forms the Pareto Front Grid.
func (g *Grid) gridFront() []int {
	var front []int
	for i := range g.Candidates {
		dominated := false
		for j := range g.Candidates {
			if i == j {
				continue
			}
			if gridDominates(g.Coords[j], g.Coords[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// gridDominates reports whether coordinates a dominate b: a ≤ b in every
// objective with at least one strict improvement.
func gridDominates(a, b [3]int) bool {
	strict := false
	for l := 0; l < 3; l++ {
		if a[l] > b[l] {
			return false
		}
		if a[l] < b[l] {
			strict = true
		}
	}
	return strict
}

// Select applies the storage constraint ζ(θ) < sizeCap to the front,
// finds the feasible front model with the best performance, and within
// that model's grid cell picks the candidate minimizing the Euclidean
// distance of grid coordinates to the ideal point (Eq. 13).
func (g *Grid) Select(sizeCap float64) (Candidate, error) {
	// Truncated PFG: drop all models exceeding the cap.
	var feasible []int
	for _, i := range g.Front {
		if g.Candidates[i].Size < sizeCap {
			feasible = append(feasible, i)
		}
	}
	if len(feasible) == 0 {
		return Candidate{}, ErrNoFeasible
	}
	// Highest-performance (lowest loss) feasible front model. A finite
	// loss always beats a non-finite one: NaN compares false both ways,
	// so without the explicit rule a poisoned first candidate would
	// survive the scan.
	best := feasible[0]
	for _, i := range feasible[1:] {
		if lossBetter(g.Candidates[i].Loss, g.Candidates[best].Loss) {
			best = i
		}
	}
	// Φʰ: feasible front models sharing the performance grid cell of the
	// best model; choose by distance to the ideal coordinates (all 1s).
	perfCell := g.Coords[best][0]
	winner, bestDist := -1, math.Inf(1)
	for _, i := range feasible {
		if g.Coords[i][0] != perfCell {
			continue
		}
		var d float64
		for l := 0; l < 3; l++ {
			dd := float64(g.Coords[i][l] - 1)
			d += dd * dd
		}
		if d < bestDist {
			winner, bestDist = i, d
		}
	}
	if winner < 0 {
		winner = best
	}
	return g.Candidates[winner], nil
}

// lossBetter orders losses with finite values ahead of NaN/Inf.
func lossBetter(a, b float64) bool {
	af := !math.IsNaN(a) && !math.IsInf(a, 0)
	bf := !math.IsNaN(b) && !math.IsInf(b, 0)
	if af != bf {
		return af
	}
	return a < b
}

// Matcher selects a backbone candidate for a device under a size cap.
type Matcher interface {
	Name() string
	Select(cands []Candidate, sizeCap float64) (Candidate, error)
}

// PFGMatcher matches via the Pareto Front Grid. Building the grid is
// amortized across selections, mirroring the paper's "after constructing
// the front, obtain the required model quickly".
type PFGMatcher struct {
	Cfg  Config
	grid *Grid
}

var _ Matcher = (*PFGMatcher)(nil)

// Name implements Matcher.
func (m *PFGMatcher) Name() string { return "ours-pfg" }

// Select implements Matcher.
func (m *PFGMatcher) Select(cands []Candidate, sizeCap float64) (Candidate, error) {
	if m.grid == nil || !sameCandidates(m.grid.Candidates, cands) {
		g, err := Build(cands, m.Cfg)
		if err != nil {
			return Candidate{}, err
		}
		m.grid = g
	}
	return m.grid.Select(sizeCap)
}

// GreedyAccuracy picks the feasible candidate with the highest accuracy
// (Fig. 9's Greedy-Accuracy baseline).
type GreedyAccuracy struct{}

var _ Matcher = GreedyAccuracy{}

// Name implements Matcher.
func (GreedyAccuracy) Name() string { return "greedy-accuracy" }

// Select implements Matcher.
func (GreedyAccuracy) Select(cands []Candidate, sizeCap float64) (Candidate, error) {
	best, found := Candidate{}, false
	for _, c := range cands {
		if c.Size >= sizeCap {
			continue
		}
		if !found || c.Accuracy > best.Accuracy {
			best, found = c, true
		}
	}
	if !found {
		return Candidate{}, ErrNoFeasible
	}
	return best, nil
}

// GreedySize picks the largest feasible candidate (Fig. 9's Greedy-Size
// baseline).
type GreedySize struct{}

var _ Matcher = GreedySize{}

// Name implements Matcher.
func (GreedySize) Name() string { return "greedy-size" }

// Select implements Matcher.
func (GreedySize) Select(cands []Candidate, sizeCap float64) (Candidate, error) {
	best, found := Candidate{}, false
	for _, c := range cands {
		if c.Size >= sizeCap {
			continue
		}
		if !found || c.Size > best.Size {
			best, found = c, true
		}
	}
	if !found {
		return Candidate{}, ErrNoFeasible
	}
	return best, nil
}

// RandomMatcher picks a uniformly random feasible candidate.
type RandomMatcher struct {
	Rng *rand.Rand
}

var _ Matcher = (*RandomMatcher)(nil)

// Name implements Matcher.
func (*RandomMatcher) Name() string { return "random" }

// Select implements Matcher.
func (m *RandomMatcher) Select(cands []Candidate, sizeCap float64) (Candidate, error) {
	feasible := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if c.Size < sizeCap {
			feasible = append(feasible, c)
		}
	}
	if len(feasible) == 0 {
		return Candidate{}, ErrNoFeasible
	}
	return feasible[m.Rng.Intn(len(feasible))], nil
}

// WeightedSum is the classic scalarization baseline used by the
// ablation benches: min Σ λl·f̂l over feasible candidates with
// min-max-normalized objectives.
type WeightedSum struct {
	Lambda [3]float64
}

var _ Matcher = (*WeightedSum)(nil)

// Name implements Matcher.
func (*WeightedSum) Name() string { return "weighted-sum" }

// Select implements Matcher.
func (m *WeightedSum) Select(cands []Candidate, sizeCap float64) (Candidate, error) {
	lambda := m.Lambda
	if lambda == ([3]float64{}) {
		lambda = [3]float64{1, 1, 1}
	}
	var lo, hi [3]float64
	for l := 0; l < 3; l++ {
		lo[l], hi[l] = math.Inf(1), math.Inf(-1)
	}
	for _, c := range cands {
		for l := 0; l < 3; l++ {
			v := c.objective(l)
			lo[l] = math.Min(lo[l], v)
			hi[l] = math.Max(hi[l], v)
		}
	}
	best, bestScore, found := Candidate{}, math.Inf(1), false
	for _, c := range cands {
		if c.Size >= sizeCap {
			continue
		}
		var s float64
		for l := 0; l < 3; l++ {
			span := hi[l] - lo[l]
			if span <= 0 {
				span = 1
			}
			s += lambda[l] * (c.objective(l) - lo[l]) / span
		}
		if s < bestScore {
			best, bestScore, found = c, s, true
		}
	}
	if !found {
		return Candidate{}, ErrNoFeasible
	}
	return best, nil
}

// SweepCandidates enumerates the (w, d) candidate lattice the cloud
// evaluates in Algorithm 1, with widths in ascending order.
func SweepCandidates(widths []float64, depths []int, eval func(w float64, d int) Candidate) []Candidate {
	ws := append([]float64(nil), widths...)
	sort.Float64s(ws)
	cands := make([]Candidate, 0, len(ws)*len(depths))
	for _, w := range ws {
		for _, d := range depths {
			cands = append(cands, eval(w, d))
		}
	}
	return cands
}

func sameCandidates(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer for diagnostics.
func (c Candidate) String() string {
	return fmt.Sprintf("cand{w=%.2f d=%d loss=%.4f E=%.1f ζ=%.0f acc=%.4f}", c.W, c.D, c.Loss, c.Energy, c.Size, c.Accuracy)
}
