// Package aggregate implements ACME's personalized architecture
// aggregation (Algorithm 2): the edge server combines the devices'
// header importance sets with similarity weights, Q'ₙ = Σᵢ ŵₙᵢ·Qᵢ
// (Eq. 21), and redistributes the personalized sets.
//
// The package also provides the Fig. 11 baselines: Alone (no
// aggregation), Average (uniform weights), and JS (Jensen–Shannon
// similarity instead of Wasserstein).
package aggregate

import (
	"fmt"
	"math"
	"math/rand"

	"acme/internal/importance"
	"acme/internal/tensor"
	"acme/internal/wasserstein"
)

// Method selects the aggregation strategy.
type Method int

// Aggregation methods (Fig. 11).
const (
	Alone Method = iota + 1
	Average
	JS
	Wasserstein // ACME
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Alone:
		return "alone"
	case Average:
		return "average"
	case JS:
		return "js"
	case Wasserstein:
		return "wasserstein"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Combine applies Eq. 21: out[n] = Σᵢ sim[n][i]·sets[i]. sim must be a
// row-stochastic |N|×|N| matrix (from wasserstein.SimilarityFromDistances).
func Combine(sets []*importance.Set, sim [][]float64) ([]*importance.Set, error) {
	n := len(sets)
	if len(sim) != n {
		return nil, fmt.Errorf("aggregate: %d sets vs %d similarity rows", n, len(sim))
	}
	out := make([]*importance.Set, n)
	for i := range out {
		if len(sim[i]) != n {
			return nil, fmt.Errorf("aggregate: similarity row %d has %d cols, want %d", i, len(sim[i]), n)
		}
		acc := sets[0].ZeroClone()
		for j, w := range sim[i] {
			if err := acc.AddScaled(w, sets[j]); err != nil {
				return nil, fmt.Errorf("aggregate: device %d += %d: %w", i, j, err)
			}
		}
		out[i] = acc
	}
	return out, nil
}

// Combiner folds importance uploads into the similarity-weighted
// accumulators incrementally, so an edge server can overlap decoding
// with aggregation instead of materializing every device's set before
// a monolithic Combine. Results are bitwise identical to Combine:
// uploads are buffered until the next foldGroup consecutive device
// positions are present and then folded together, one pass over each
// accumulator applying the group's multiply-adds in ascending device
// position — Combine's exact floating-point addition order at a
// fraction of its accumulator traffic. Each fold fans out across the
// output accumulators in tensor.ParallelFor blocks (every accumulator is
// owned by one goroutine, so the parallelism is also bitwise-invisible).
//
// A set handed to Add is read when its group folds, which may be as late
// as Result or ResultPartial: it must stay valid and unmodified until
// one of them returns. What remains after the last upload is at most one
// grouped pass plus finalize.
//
// Output rows are independent of one another, so a combiner built by
// NewCombinerFor leases, folds and renormalizes only the rows its
// caller will read and leaves the others nil; the rows it does compute
// are the ones NewCombiner would, bit for bit.
//
// The accumulators are leased from nn's scratch pool, each cut from one
// slab (importance.Set.LeaseZeroClone), and the combiner sees them
// through their whole life: Result or ResultPartial hands them to the
// caller, and the next round's combiner takes them back when its Result
// or ResultPartial is passed them as prev, so that the round after
// leases the same storage again. A combiner abandoned before its result
// gives them back at Release.
type Combiner struct {
	sim     [][]float64
	n       int
	rows    []int             // output rows computed, ascending
	acc     []*importance.Set // leased, nil outside rows; the caller's after a result
	first   *importance.Set   // first set added: the shape every other must match
	pending []*importance.Set // added but not yet folded
	added   int               // positions handed to Add so far
	next    int               // positions [0,next) are folded or skipped

	// group[:grouped] are the positions the running fold applies, and
	// foldRows, bound once, folds them into a block of rows: a fold
	// hands ParallelFor no fresh closure.
	group    [foldGroup]int
	grouped  int
	foldRows func(k0, k1 int)
}

// foldGroup is how many uploads one pass over the accumulators folds.
// Measured on the 64-device × 19 844-entry exchange replay: 4 cuts the
// replay's CPU by a quarter against 1, and 8 is indistinguishable from 4.
const foldGroup = 4

// fold spells the group out (four sources, tensor.Axpy4's arity), so
// changing foldGroup alone must not compile.
var _ = [1]struct{}{}[foldGroup-4]

// NewCombiner validates the similarity matrix and returns an empty
// combiner expecting one Add per device position. Every output row is
// computed.
func NewCombiner(sim [][]float64) (*Combiner, error) {
	return NewCombinerFor(sim, nil)
}

// NewCombinerFor is NewCombiner for a caller that reads only the output
// rows i with read[i] set: the result holds nil everywhere else. Uploads
// are still expected, and checked, from every position — which rows are
// read has no bearing on which devices contribute. A nil read selects
// every row. read is consulted here only; the caller may reuse it. A
// result with unread rows has no convergence delta: Result and
// ResultPartial report +Inf for it, as SetsDelta does for any nil set.
func NewCombinerFor(sim [][]float64, read []bool) (*Combiner, error) {
	n := len(sim)
	for i, row := range sim {
		if len(row) != n {
			return nil, fmt.Errorf("aggregate: similarity row %d has %d cols, want %d", i, len(row), n)
		}
	}
	if read != nil && len(read) != n {
		return nil, fmt.Errorf("aggregate: %d read flags for %d output rows", len(read), n)
	}
	rows := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if read == nil || read[i] {
			rows = append(rows, i)
		}
	}
	c := &Combiner{
		sim:     sim,
		n:       n,
		rows:    rows,
		pending: make([]*importance.Set, n),
	}
	c.foldRows = c.foldBlock
	return c, nil
}

// Added reports how many device positions have been handed to Add.
func (c *Combiner) Added() int { return c.added }

// Add registers device position pos's importance set and folds every
// full group of consecutive positions that is now ready, in ascending
// order. The set must stay valid and unmodified until Result or
// ResultPartial returns. Duplicate positions and shape mismatches are
// rejected here, before anything is buffered.
func (c *Combiner) Add(pos int, set *importance.Set) error {
	if pos < 0 || pos >= c.n {
		return fmt.Errorf("aggregate: position %d outside [0,%d)", pos, c.n)
	}
	// Already folded (pos < next) or still buffered: either way a
	// second upload for the position is a duplicate.
	if pos < c.next || c.pending[pos] != nil {
		return fmt.Errorf("aggregate: duplicate set for position %d", pos)
	}
	if set == nil {
		return fmt.Errorf("aggregate: nil set for position %d", pos)
	}
	if c.first == nil {
		c.first = set
		c.acc = make([]*importance.Set, c.n)
		for _, i := range c.rows {
			c.acc[i] = set.LeaseZeroClone()
		}
	} else if err := shapeCheck(c.first, set, pos); err != nil {
		return err
	}
	c.added++
	c.pending[pos] = set
	for c.next+foldGroup <= c.n {
		var ps [foldGroup]int
		for k := range ps {
			if c.pending[c.next+k] == nil {
				return nil
			}
			ps[k] = c.next + k
		}
		c.fold(ps, foldGroup)
		c.next += foldGroup
	}
	return nil
}

func shapeCheck(ref, set *importance.Set, pos int) error {
	if len(ref.Layers) != len(set.Layers) {
		return fmt.Errorf("aggregate: position %d has %d layers, want %d", pos, len(set.Layers), len(ref.Layers))
	}
	for l := range ref.Layers {
		if len(ref.Layers[l]) != len(set.Layers[l]) {
			return fmt.Errorf("aggregate: position %d layer %d has %d entries, want %d",
				pos, l, len(set.Layers[l]), len(ref.Layers[l]))
		}
	}
	return nil
}

// fold applies acc[i] += sim[i][p]·pending[p] for every computed output
// i and the g buffered positions ps[:g], ascending, then releases them.
// A full group takes one pass over each accumulator; a shorter one (only
// Result and ResultPartial produce those) takes one Axpy pass per
// position. Shapes were validated in Add.
func (c *Combiner) fold(ps [foldGroup]int, g int) {
	c.group, c.grouped = ps, g
	tensor.ParallelFor(len(c.rows), c.foldRows)
	for _, p := range ps[:g] {
		c.pending[p] = nil
	}
}

// foldBlock is fold's work on output rows c.rows[k0:k1].
func (c *Combiner) foldBlock(k0, k1 int) {
	ps, g := &c.group, c.grouped
	for _, i := range c.rows[k0:k1] {
		w, acc := c.sim[i], c.acc[i].Layers
		if g < foldGroup {
			for _, p := range ps[:g] {
				for l, x := range c.pending[p].Layers {
					tensor.Axpy(w[p], x, acc[l])
				}
			}
			continue
		}
		s0, s1, s2, s3 := c.pending[ps[0]].Layers, c.pending[ps[1]].Layers, c.pending[ps[2]].Layers, c.pending[ps[3]].Layers
		for l, y := range acc {
			tensor.Axpy4(w[ps[0]], w[ps[1]], w[ps[2]], w[ps[3]], s0[l], s1[l], s2[l], s3[l], y)
		}
	}
}

// flush folds whatever is still buffered, in ascending position order
// and in groups of up to foldGroup. Grouping across the gaps a straggler
// cutoff leaves is fine: only the order matters.
func (c *Combiner) flush() {
	var ps [foldGroup]int
	g := 0
	for p := c.next; p < c.n; p++ {
		if c.pending[p] == nil {
			continue
		}
		ps[g] = p
		if g++; g == foldGroup {
			c.fold(ps, g)
			g = 0
		}
	}
	if g > 0 {
		c.fold(ps, g)
	}
	c.next = c.n
}

// Result finalizes the aggregation once every position was added,
// folding the last n mod foldGroup positions first. It also measures the
// convergence delta against prev (the previous round's combined sets) in
// the same pass over the still-cache-hot accumulators, returning +Inf
// when prev is nil or shaped differently (both mean "not converged").
//
// Result takes prev back: once the delta has read it, every leased set
// in it is released, and the caller must not read prev again. A nil
// prev, or sets that were never leased (decoded from a snapshot), are
// only read. On error prev is left alone.
func (c *Combiner) Result(prev []*importance.Set) ([]*importance.Set, float64, error) {
	if c.added != c.n {
		return nil, 0, fmt.Errorf("aggregate: only %d of %d sets added", c.added, c.n)
	}
	c.flush()
	acc, delta := c.handOver(prev)
	return acc, delta, nil
}

// handOver gives the accumulators to the caller with their convergence
// delta against prev, then releases prev.
func (c *Combiner) handOver(prev []*importance.Set) ([]*importance.Set, float64) {
	acc, delta := c.acc, SetsDelta(prev, c.acc)
	c.acc = nil
	importance.ReleaseAll(prev)
	return acc, delta
}

// Release gives back the accumulators of a combiner abandoned before its
// result, such as by a gather that failed midway. Once Result or
// ResultPartial has handed them over they are the caller's, and Release
// does nothing, as it does on a nil combiner.
func (c *Combiner) Release() {
	if c != nil {
		importance.ReleaseAll(c.acc)
		c.acc = nil
	}
}

// ResultPartial finalizes a quorum combine: the positions that never
// arrived (a straggler cutoff) are simply skipped, and every computed
// accumulator is renormalized by its present similarity mass
// Σ_{j present} sim[i][j], so each combined set stays a convex
// combination of the uploads that did arrive instead of shrinking
// toward zero with the missing weight. Every arrival still buffered is
// folded here, in ascending position order. present reports how many
// positions contributed. A full combine should keep using Result — it
// skips the renormalization pass entirely, so the no-cutoff path stays
// bitwise identical to Combine. It takes prev back as Result does.
func (c *Combiner) ResultPartial(prev []*importance.Set) ([]*importance.Set, int, float64, error) {
	if c.added == 0 {
		return nil, 0, 0, fmt.Errorf("aggregate: quorum combine with no sets folded")
	}
	folded := make([]bool, c.n)
	present := 0
	for p := range folded {
		if p < c.next || c.pending[p] != nil {
			folded[p] = true
			present++
		}
	}
	c.flush()
	tensor.ParallelFor(len(c.rows), func(k0, k1 int) {
		for _, i := range c.rows[k0:k1] {
			var mass float64
			for j, ok := range folded {
				if ok {
					mass += c.sim[i][j]
				}
			}
			if mass <= 0 {
				continue
			}
			inv := 1 / mass
			for l := range c.acc[i].Layers {
				row := c.acc[i].Layers[l]
				for k := range row {
					row[k] *= inv
				}
			}
		}
	})
	acc, delta := c.handOver(prev)
	return acc, present, delta, nil
}

// SetsDelta measures the mean relative L2 change between consecutive
// rounds' aggregated importance sets (the §II-A convergence monitor).
// Empty inputs, length mismatches, nil sets, and per-layer shape
// mismatches all report +Inf — a malformed comparison never counts as
// converged. The per-set contributions are independent, so they are
// computed in tensor.ParallelFor blocks and reduced in ascending set
// order — the edge's finalize barrier shrinks on wide clusters while
// the result stays bitwise identical to the serial pass.
func SetsDelta(prev, cur []*importance.Set) float64 {
	if len(prev) == 0 || len(cur) == 0 || len(prev) != len(cur) {
		return math.Inf(1)
	}
	type contrib struct {
		ratio     float64
		counted   bool
		malformed bool
	}
	parts := make([]contrib, len(cur))
	tensor.ParallelFor(len(cur), func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			if prev[i] == nil || cur[i] == nil || len(prev[i].Layers) != len(cur[i].Layers) {
				parts[i].malformed = true
				continue
			}
			var num, den float64
			for l := range cur[i].Layers {
				if len(prev[i].Layers[l]) != len(cur[i].Layers[l]) {
					parts[i].malformed = true
					break
				}
				for j := range cur[i].Layers[l] {
					d := cur[i].Layers[l][j] - prev[i].Layers[l][j]
					num += d * d
					den += prev[i].Layers[l][j] * prev[i].Layers[l][j]
				}
			}
			if parts[i].malformed {
				continue
			}
			if den > 0 {
				parts[i].ratio = math.Sqrt(num / den)
				parts[i].counted = true
			}
		}
	})
	var total float64
	var n int
	for i := range parts {
		if parts[i].malformed {
			return math.Inf(1)
		}
		if parts[i].counted {
			total += parts[i].ratio
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return total / float64(n)
}

// UniformMatrix returns the n×n matrix with every entry 1/n (the Avg
// baseline's weights).
func UniformMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = 1 / float64(n)
		}
	}
	return m
}

// identityMatrix returns the n×n identity (the Alone baseline's
// weights: each device keeps only its own set).
func identityMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	return m
}

// WassersteinSimilarityRaw builds the Eq. 19 similarity matrix, before
// Eq. 20's row-softmax, from per-device probe features using the sliced
// p-Wasserstein distance — the matrix the Fig. 10 heatmaps display.
func WassersteinSimilarityRaw(features [][][]float64, p float64, projections int, rng *rand.Rand) ([][]float64, error) {
	dist, err := wassersteinDistances(features, p, projections, rng)
	if err != nil {
		return nil, err
	}
	return wasserstein.SimilarityRaw(dist)
}

func wassersteinDistances(features [][][]float64, p float64, projections int, rng *rand.Rand) ([][]float64, error) {
	n := len(features)
	dist := make([][]float64, n)
	cells := make([]float64, n*n)
	for i := range dist {
		dist[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	var s wasserstein.Slicer
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, err := s.Distance(features[i], features[j], p, projections, rng)
			if err != nil {
				return nil, fmt.Errorf("aggregate: devices %d,%d: %w", i, j, err)
			}
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	return dist, nil
}

// JSSimilarityRaw is WassersteinSimilarityRaw over per-device label
// histograms, with Jensen–Shannon divergence as the distance (the JS
// baseline of Fig. 10–11).
func JSSimilarityRaw(histograms [][]float64) ([][]float64, error) {
	dist, err := jsDistances(histograms)
	if err != nil {
		return nil, err
	}
	return wasserstein.SimilarityRaw(dist)
}

func jsDistances(histograms [][]float64) ([][]float64, error) {
	n := len(histograms)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, err := wasserstein.JSDivergence(histograms[i], histograms[j])
			if err != nil {
				return nil, fmt.Errorf("aggregate: devices %d,%d: %w", i, j, err)
			}
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	return dist, nil
}

// MatrixFor returns the weight matrix for the given method. For JS it
// needs label histograms; for Wasserstein it needs probe features.
// distScale multiplies raw distances before the Eq. 19–20 mapping; at
// micro scale feature distances are ≪1 and the row softmax would wash
// out otherwise (paper-scale image features have distances ≫1).
func MatrixFor(m Method, n int, histograms [][]float64, features [][][]float64, rng *rand.Rand, distScale float64) ([][]float64, error) {
	if distScale <= 0 {
		distScale = 1
	}
	scale := func(dist [][]float64) [][]float64 {
		for i := range dist {
			for j := range dist[i] {
				dist[i][j] *= distScale
			}
		}
		return dist
	}
	switch m {
	case Alone:
		return identityMatrix(n), nil
	case Average:
		return UniformMatrix(n), nil
	case JS:
		dist, err := jsDistances(histograms)
		if err != nil {
			return nil, err
		}
		return wasserstein.SimilarityFromDistances(scale(dist))
	case Wasserstein:
		dist, err := wassersteinDistances(features, 1, 24, rng)
		if err != nil {
			return nil, err
		}
		return wasserstein.SimilarityFromDistances(scale(dist))
	default:
		return nil, fmt.Errorf("aggregate: unknown method %v", m)
	}
}
