// Package sched turns per-round participation from a uniform draw into
// a scored choice: every live member is a point in a four-objective
// space — expected information gain (importance-delta movement ×
// staleness, maximized), predicted upload bytes, gather latency, and
// per-round energy spend (all minimized) — and the round's subset is
// picked from the non-dominated frontier of that space using the same
// grid-dominance idiom as internal/pareto's Phase-1 optimizer (Eq.
// 11–13): objectives are quantized onto a K-interval grid, dominated
// cells are peeled front by front, and within a front members are
// ranked by weighted grid distance to the all-ones ideal point.
//
// The scheduler is a drop-in replacement for fleet.Sampler behind the
// same determinism contract: the pick depends only on (Seed, round,
// live set, telemetry), telemetry is fed through round-gated
// deterministic series (see fleet.Registry), and ties break by a
// seeded per-round hash then node name — so every process of a
// distributed run derives the same subset, over memory and TCP alike.
// With scoring disabled (Uniform, or no telemetry source) it delegates
// verbatim to fleet.Sampler, byte-for-byte reproducing the uniform
// draws that the repo's continuity configs pin.
package sched

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"acme/internal/fleet"
)

// Objective indices into Weights and the candidate objective vector.
const (
	objGain    = 0 // expected information gain (negated: minimized)
	objBytes   = 1 // predicted upload bytes
	objLatency = 2 // gather latency (slowness class + deterministic prior)
	objEnergy  = 3 // per-round training energy
	numObj     = 4
)

// Weights scales the four scheduling objectives. A weight of zero
// removes the objective from dominance and distance entirely; the zero
// value (all zeros) means flat — every objective at weight 1.
type Weights struct {
	Gain    float64
	Bytes   float64
	Latency float64
	Energy  float64
}

// FlatWeights returns the all-ones default.
func FlatWeights() Weights { return Weights{Gain: 1, Bytes: 1, Latency: 1, Energy: 1} }

// vec returns the weights as an indexable vector, mapping the all-zero
// zero value to flat.
func (w Weights) vec() [numObj]float64 {
	v := [numObj]float64{w.Gain, w.Bytes, w.Latency, w.Energy}
	for _, x := range v {
		if x > 0 {
			return v
		}
	}
	return [numObj]float64{1, 1, 1, 1}
}

// String renders the weights in ParseWeights' named form.
func (w Weights) String() string {
	return fmt.Sprintf("gain=%g,bytes=%g,latency=%g,energy=%g", w.Gain, w.Bytes, w.Latency, w.Energy)
}

// ParseWeights parses a -sched-weights flag value: either four
// positional comma-separated values "gain,bytes,latency,energy"
// ("1,2,0.5,1") or named pairs ("gain=2,bytes=1"); unnamed objectives
// default to 1. Negative and non-finite weights are rejected.
func ParseWeights(s string) (Weights, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Weights{}, nil
	}
	parts := strings.Split(s, ",")
	named := strings.Contains(parts[0], "=")
	w := Weights{}
	if named {
		w = FlatWeights()
	}
	idx := map[string]*float64{"gain": &w.Gain, "bytes": &w.Bytes, "latency": &w.Latency, "energy": &w.Energy}
	pos := []*float64{&w.Gain, &w.Bytes, &w.Latency, &w.Energy}
	for i, p := range parts {
		p = strings.TrimSpace(p)
		var dst *float64
		var val string
		if named {
			k, v, ok := strings.Cut(p, "=")
			if !ok {
				return Weights{}, fmt.Errorf("sched: weight %q: want name=value", p)
			}
			dst = idx[strings.TrimSpace(k)]
			if dst == nil {
				return Weights{}, fmt.Errorf("sched: unknown objective %q (want gain/bytes/latency/energy)", k)
			}
			val = strings.TrimSpace(v)
		} else {
			if i >= len(pos) {
				return Weights{}, fmt.Errorf("sched: too many positional weights (want %d)", len(pos))
			}
			dst = pos[i]
			val = p
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Weights{}, fmt.Errorf("sched: weight %q: %v", p, err)
		}
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return Weights{}, fmt.Errorf("sched: weight %q must be finite and non-negative", p)
		}
		*dst = f
	}
	if !named && len(parts) != len(pos) {
		return Weights{}, fmt.Errorf("sched: want %d positional weights, got %d", len(pos), len(parts))
	}
	return w, nil
}

// Telemetry is one member's scheduling view for a round, assembled by
// the Source from deterministic series only.
type Telemetry struct {
	// Gain is the member's importance-movement EWMA
	// (fleet.Member.GainEWMA): how much its uploads are still changing.
	Gain float64
	// GainKnown reports whether Gain reflects at least one decoded
	// upload. A member never yet folded has no movement history, and
	// zero would starve it forever — the ranking substitutes the
	// candidate set's best known gain instead (optimism under
	// uncertainty), so staleness growth eventually forces exploration.
	GainKnown bool
	// Staleness is rounds since the member last contributed
	// (round − LastRound); it multiplies Gain so idle members regain
	// attractiveness instead of starving.
	Staleness float64
	// UpBytes is the member's per-contribution wire-byte EWMA.
	UpBytes float64
	// Warm reports whether the member contributed in the immediately
	// preceding round, i.e. its delta chain is intact and UpBytes
	// predicts the next upload. A cold member re-seeds dense, so its
	// predicted cost is the candidate set's worst, not its own EWMA.
	Warm bool
	// WallSeconds is the member's gather arrival-offset EWMA. Measured
	// wall time is transport-dependent, so the scheduler folds it in
	// only through coarse slowness classes (see slowClass).
	WallSeconds float64
	// LatencyPrior is a deterministic per-device latency estimate
	// (energy.Profile.Latency at the cluster backbone) that
	// differentiates heterogeneous hardware without touching the clock.
	LatencyPrior float64
	// Energy is the member's deterministic per-round training energy
	// (energy.Profile.Energy at the cluster backbone).
	Energy float64
}

// Source supplies per-member telemetry. Implementations must be
// deterministic functions of (node, round) given the same run history.
type Source interface {
	Telemetry(node string, round int) Telemetry
}

// Scheduler picks each round's participation subset. Frac and Seed
// carry fleet.Sampler's contract: Frac in (0,1) enables subsetting,
// Size is ceil(Frac×n) clamped to [1,n], and the pick for a round is a
// pure function of the inputs.
type Scheduler struct {
	Frac float64
	Seed int64
	// Weights scales the objectives; zero value = flat.
	Weights Weights
	// Intervals is the dominance grid resolution K per objective
	// (default 8).
	Intervals int
	// Uniform disables scoring: delegate every draw to fleet.Sampler.
	Uniform bool
	// Source supplies telemetry; nil also delegates to fleet.Sampler.
	Source Source
}

// uniform is the embedded reference sampler the scheduler defers to
// for sizing and for unscored draws.
func (s *Scheduler) uniform() fleet.Sampler { return fleet.Sampler{Frac: s.Frac, Seed: s.Seed} }

// Enabled reports whether the scheduler actually subsets.
func (s *Scheduler) Enabled() bool { return s.uniform().Enabled() }

// Size returns the subset size for n live members.
func (s *Scheduler) Size(n int) int { return s.uniform().Size(n) }

// sigma mirrors pareto.Config.Sigma: the σ > 0 keeping Eq. 11's
// interval width positive when an objective is constant.
const sigma = 1e-9

// defaultIntervals is the grid resolution when Intervals is unset.
const defaultIntervals = 8

// Sample returns the round's participation subset of live, sorted.
// Scoring disabled (Uniform or no Source) reproduces fleet.Sampler's
// draw exactly.
func (s *Scheduler) Sample(round int, live []string) []string {
	if s.Uniform || s.Source == nil {
		return s.uniform().Sample(round, live)
	}
	members := append([]string(nil), live...)
	sort.Strings(members)
	if !s.Enabled() || len(members) == 0 {
		return members
	}
	ranked := s.rank(round, members)
	picked := ranked[:s.Size(len(members))]
	sort.Strings(picked)
	return picked
}

// candidate is one member's scored view for a round.
type candidate struct {
	node    string
	obj     [numObj]float64
	coord   [numObj]int
	front   int
	dist    float64
	tie     uint64
	warm    bool
	laggard bool
}

// rank orders members best-first: by Pareto front (grid dominance over
// the active objectives), then weighted grid distance to the ideal
// point, then seeded tie-break, then name.
func (s *Scheduler) rank(round int, members []string) []string {
	w := s.Weights.vec()
	k := s.Intervals
	if k <= 0 {
		k = defaultIntervals
	}
	cands := make([]candidate, len(members))
	var maxBytes, maxPrior, maxGain float64
	tels := make([]Telemetry, len(members))
	for i, nm := range members {
		tel := s.Source.Telemetry(nm, round)
		tels[i] = tel
		if tel.UpBytes > maxBytes {
			maxBytes = tel.UpBytes
		}
		if tel.LatencyPrior > maxPrior {
			maxPrior = tel.LatencyPrior
		}
		if tel.GainKnown && tel.Gain > maxGain {
			maxGain = tel.Gain
		}
	}
	med := medianPositive(tels)
	for i, nm := range members {
		tel := tels[i]
		// Gain (maximize → negate): movement × staleness, with an ε so a
		// member with no history yet still earns credit for going stale.
		// A member whose movement was never measured borrows the
		// candidate set's best known gain (the mirror of the cold-bytes
		// rule below, in the optimistic direction): its expected
		// information is at least as good as anyone's until evidence says
		// otherwise, so the staleness multiplier pulls it in instead of
		// letting measured members monopolize every round.
		g := tel.Gain
		if !tel.GainKnown {
			g = maxGain
		}
		gain := (g + 1e-12) * (1 + tel.Staleness)
		// Bytes: a cold delta chain re-seeds dense, so the prediction
		// for any non-warm (or never-measured) member is the candidate
		// set's worst observed cost, not its own stale EWMA.
		bytes := tel.UpBytes
		if !tel.Warm || bytes <= 0 {
			bytes = maxBytes
		}
		// Latency: integer slowness class relative to the fleet median
		// (transport-robust), plus a sub-class deterministic hardware
		// prior that orders members within a class.
		class := slowClass(tel.WallSeconds, med)
		lat := float64(class)
		if maxPrior > 0 {
			lat += 0.5 * tel.LatencyPrior / maxPrior
		}
		cands[i] = candidate{
			node: nm,
			obj:  [numObj]float64{-gain, bytes, lat, tel.Energy},
			tie:  tieRank(s.Seed, round, nm),
			warm: tel.Warm,
			// Any observed wall past the guard is a deadline-feasibility
			// violation, not a trade-off: the grid normalizes magnitudes
			// away, so a member straggling 100× the median would
			// otherwise look no worse than the cold chain it keeps warm.
			// Mirroring pareto.Select's infeasible handling, laggards
			// rank after every feasible member regardless of score.
			laggard: class >= 1 && w[objLatency] > 0,
		}
	}
	gridCoords(cands, k)
	assignFronts(cands, w)
	for i := range cands {
		var d float64
		for l := 0; l < numObj; l++ {
			if w[l] <= 0 {
				continue
			}
			dd := float64(cands[i].coord[l] - 1)
			d += w[l] * dd * dd
		}
		cands[i].dist = math.Sqrt(d)
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.laggard != b.laggard {
			return !a.laggard
		}
		if a.front != b.front {
			return a.front < b.front
		}
		if a.dist != b.dist {
			return a.dist < b.dist
		}
		if a.warm != b.warm {
			// A genuine score tie between a warm chain and a cold one is
			// not a coin flip: continuing the warm chain keeps its delta
			// encoding alive, the cold member pays a dense re-seed either
			// way. Deterministic (Warm is registry-derived), so the picks
			// stay transport-identical.
			return a.warm
		}
		if a.tie != b.tie {
			return a.tie < b.tie
		}
		return a.node < b.node
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.node
	}
	return out
}

// gridCoords quantizes every candidate's objectives onto the K-interval
// grid (Eq. 11–12 generalized to four dimensions): per objective,
// ideal = min and worst = max over the candidates, interval width
// r = (worst − ideal + 2σ)/K, Ψ = ⌈(f − ideal + σ)/r⌉ clamped to
// [1, K]. Non-finite objective values pin to the worst cell.
func gridCoords(cands []candidate, k int) {
	for l := 0; l < numObj; l++ {
		ideal, worst := math.Inf(1), math.Inf(-1)
		for _, c := range cands {
			v := c.obj[l]
			if !isFinite(v) {
				continue
			}
			if v < ideal {
				ideal = v
			}
			if v > worst {
				worst = v
			}
		}
		if ideal > worst {
			// No finite value at all: the objective carries no signal.
			for i := range cands {
				cands[i].coord[l] = 1
			}
			continue
		}
		r := (worst - ideal + 2*sigma) / float64(k)
		for i := range cands {
			v := cands[i].obj[l]
			if !isFinite(v) {
				cands[i].coord[l] = k
				continue
			}
			c := int(math.Ceil((v - ideal + sigma) / r))
			if c < 1 {
				c = 1
			}
			if c > k {
				c = k
			}
			cands[i].coord[l] = c
		}
	}
}

// assignFronts peels non-dominated fronts: front 0 is the grid-Pareto
// frontier over the active (positively weighted) objectives, front 1
// the frontier of the rest, and so on.
func assignFronts(cands []candidate, w [numObj]float64) {
	remaining := make([]int, len(cands))
	for i := range remaining {
		remaining[i] = i
	}
	for front := 0; len(remaining) > 0; front++ {
		var keep, peeled []int
		for _, i := range remaining {
			dominated := false
			for _, j := range remaining {
				if i != j && gridDominates(cands[j].coord, cands[i].coord, w) {
					dominated = true
					break
				}
			}
			if dominated {
				keep = append(keep, i)
			} else {
				peeled = append(peeled, i)
			}
		}
		for _, i := range peeled {
			cands[i].front = front
		}
		remaining = keep
	}
}

// gridDominates reports whether a's coordinates dominate b's over the
// active objectives: ≤ everywhere, < somewhere.
func gridDominates(a, b [numObj]int, w [numObj]float64) bool {
	strict := false
	for l := 0; l < numObj; l++ {
		if w[l] <= 0 {
			continue
		}
		if a[l] > b[l] {
			return false
		}
		if a[l] < b[l] {
			strict = true
		}
	}
	return strict
}

// slowClass quantizes a measured wall EWMA into a coarse slowness
// class relative to the fleet's median positive EWMA: 0 for anything
// within guard× the median (ordinary scheduling and transport jitter)
// or under slowFloor outright, then one class per further doubling.
// Only classes — never raw wall values — enter the objective, so the
// same run picks identically over memory and TCP even though the
// measured offsets differ.
func slowClass(wall, median float64) int {
	if !isFinite(wall) {
		// An unmeasurable wall can't prove the member fast: first class
		// past the guard.
		return 1
	}
	if median <= 0 || wall < slowFloor || wall <= guard*median {
		return 0
	}
	return 1 + int(math.Log2(wall/(guard*median)))
}

const (
	// guard is how many fleet medians a wall may reach before it counts
	// as slow.
	guard = 8
	// slowFloor, in seconds, is the wall under which a member is never
	// slow, whatever the median. A ratio alone misreads a fast fleet:
	// when every member answers in well under a millisecond, the median
	// is tens of microseconds and one goroutine preemption (a few
	// hundred) is already 8× it, so which members look slow — and with
	// them the round's picks — would depend on the host's scheduler. No
	// deadline this runtime enforces is anywhere near as short as 50 ms,
	// so a wall below it says nothing about the member.
	slowFloor = 0.050
)

// medianPositive returns the median of the members' positive wall
// EWMAs — members never yet measured don't drag the reference down.
func medianPositive(tels []Telemetry) float64 {
	vals := make([]float64, 0, len(tels))
	for _, t := range tels {
		if t.WallSeconds > 0 {
			vals = append(vals, t.WallSeconds)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// tieRank mixes the scheduler seed, round, and node name through a
// splitmix64 finalizer: the seeded tie-break that keeps equal-scored
// members from resolving by list position.
func tieRank(seed int64, round int, node string) uint64 {
	h := uint64(14695981039346656037) // FNV-64a offset basis
	for i := 0; i < len(node); i++ {
		h ^= uint64(node[i])
		h *= 1099511628211
	}
	z := uint64(seed) ^ (0x9e3779b97f4a7c15 * uint64(round+1)) ^ h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
