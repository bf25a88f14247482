package fleet

import (
	"math"
	"math/rand"
	"sort"
)

// Sampler draws each round's participation subset from the live member
// set: a uniform, seeded, deterministic sample. The draw depends only
// on (Seed, round, live set) — not on arrival order, transport, or wall
// clock — so every process of a distributed run that agrees on the
// membership view derives the same subset.
type Sampler struct {
	// Frac is the participation fraction in (0,1); values outside that
	// range disable sampling (every live member participates).
	Frac float64
	// Seed decorrelates the per-round draws from every other seeded
	// stream of the run.
	Seed int64
}

// Enabled reports whether the sampler actually subsets: a fraction in
// (0,1). Zero (the default) and ≥1 mean full participation.
func (s Sampler) Enabled() bool { return s.Frac > 0 && s.Frac < 1 }

// Size returns the sampled-subset size for n live members:
// ceil(Frac×n), at least 1 while any member is live.
func (s Sampler) Size(n int) int {
	if !s.Enabled() || n <= 0 {
		return n
	}
	k := int(math.Ceil(s.Frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Sample returns the round's participation subset of live, sorted.
// live may arrive in any order; the draw canonicalizes it first, so
// memory and TCP runs with the same membership view sample
// identically.
func (s Sampler) Sample(round int, live []string) []string {
	members := append([]string(nil), live...)
	sort.Strings(members)
	if !s.Enabled() || len(members) == 0 {
		return members
	}
	rng := rand.New(rand.NewSource(roundSeed(s.Seed, round)))
	rng.Shuffle(len(members), func(i, j int) {
		members[i], members[j] = members[j], members[i]
	})
	picked := members[:s.Size(len(members))]
	sort.Strings(picked)
	return picked
}

// roundSeed mixes the sampler seed with the round index (splitmix64
// finalizer) so consecutive rounds draw from well-separated streams
// rather than nearby rand.Source states.
func roundSeed(seed int64, round int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(round+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
