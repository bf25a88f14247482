package aggregate

import (
	"math/rand"
	"testing"

	"acme/internal/importance"
)

func benchSets(rng *rand.Rand, n int) ([]*importance.Set, [][]float64) {
	sets := make([]*importance.Set, n)
	for i := range sets {
		layers := [][]float64{make([]float64, 4096), make([]float64, 1024)}
		for _, l := range layers {
			for j := range l {
				l[j] = rng.NormFloat64()
			}
		}
		sets[i] = &importance.Set{Layers: layers}
	}
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		for j := range sim[i] {
			sim[i][j] = 1 / float64(n)
		}
	}
	return sets, sim
}

// BenchmarkEdgeAggregate compares the edge's per-round aggregation
// critical path. "materialize" is the pre-streaming baseline: wait for
// all N uploads, then run the full Combine, one Axpy sweep over every
// accumulator per upload. "streaming-tail" is what the streaming
// Combiner leaves on the critical path after the last upload arrives
// when uploads come in order: the earlier full groups already folded,
// overlapped with the uploads (excluded from the timer), so at most one
// grouped pass plus finalize remains. Both run at 12 devices × 5 120
// entries; the cases suffixed 64x19844 repeat them at the exchange replay's
// shape and add "streaming-total", every Add plus Result — the edge's
// whole fold work for a round, one pass over every accumulator per four
// uploads — so the grouped fold's gain over materialize reads off one
// binary. sampled-10of100x19844 is one round of the fleet-sampled
// workload's edge, 100 uploads of which 10 devices get a downlink:
// every Add plus Result computing all 100 rows against computing the
// invitees' 10.
func BenchmarkEdgeAggregate(b *testing.B) {
	const n = 12
	rng := rand.New(rand.NewSource(5))
	sets, sim := benchSets(rng, n)

	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Combine(sets, sim); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streaming-tail", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			comb, err := NewCombiner(sim)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < n-1; j++ {
				if err := comb.Add(j, sets[j]); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if err := comb.Add(n-1, sets[n-1]); err != nil {
				b.Fatal(err)
			}
			if _, _, err := comb.Result(nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The exchange replay's shape: 64 devices × 19 844 entries.
	const replayN = 64
	replaySets := randomSets(rng, replayN, []int{5152, 3104, 5152, 1056, 5120, 196, 32, 32})
	replaySim := UniformMatrix(replayN)
	streaming := func(b *testing.B, untimed int) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			comb, err := NewCombiner(replaySim)
			if err != nil {
				b.Fatal(err)
			}
			for j, set := range replaySets {
				if j == untimed {
					b.StartTimer()
				}
				if err := comb.Add(j, set); err != nil {
					b.Fatal(err)
				}
			}
			if _, _, err := comb.Result(nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("materialize-64x19844", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Combine(replaySets, replaySim); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streaming-total-64x19844", func(b *testing.B) { streaming(b, 0) })
	b.Run("streaming-tail-64x19844", func(b *testing.B) { streaming(b, replayN-1) })

	b.Run("sampled-10of100x19844", func(b *testing.B) {
		const fleetN = 100
		fleetSets := randomSets(rng, fleetN, []int{5152, 3104, 5152, 1056, 5120, 196, 32, 32})
		fleetSim := randomStochastic(rng, fleetN)
		invited := make([]bool, fleetN)
		for _, p := range rng.Perm(fleetN)[:fleetN/10] {
			invited[p] = true
		}
		round := func(read []bool) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					comb, err := NewCombinerFor(fleetSim, read)
					if err != nil {
						b.Fatal(err)
					}
					for j, set := range fleetSets {
						if err := comb.Add(j, set); err != nil {
							b.Fatal(err)
						}
					}
					if _, _, err := comb.Result(nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.Run("all-rows", round(nil))
		b.Run("invited-rows", round(invited))
	})
}
