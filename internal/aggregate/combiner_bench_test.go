package aggregate

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkEdgeAggregate compares the edge's per-round aggregation at
// two shapes: 12 devices × 5 120 entries, and the exchange replay's 64
// devices × 19 844 entries. "materialize" waits for all N uploads, then
// runs the full Combine: one Axpy sweep over every accumulator per
// upload, which is also what the streaming combiner cost in total
// before it folded in groups. "streaming-total" is every Add plus
// Result, the edge's whole fold work for a round: one pass over every
// accumulator per four uploads. "streaming-tail" is what stays on the
// critical path after the last upload arrives when uploads come in
// order: the earlier full groups already folded, overlapped with the
// gather (excluded from the timer), so at most one grouped pass plus
// finalize remains.
func BenchmarkEdgeAggregate(b *testing.B) {
	shapes := []struct {
		n      int
		layers []int
	}{
		{12, []int{4096, 1024}},
		{64, []int{5152, 3104, 5152, 1056, 5120, 196, 32, 32}}, // 19 844 entries
	}
	for _, sh := range shapes {
		n := sh.n
		sets, sim := randomSets(rand.New(rand.NewSource(5)), n, sh.layers), UniformMatrix(n)
		size := fmt.Sprintf("%dx%d", n, sets[0].Total())

		b.Run("materialize/"+size, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Combine(sets, sim); err != nil {
					b.Fatal(err)
				}
			}
		})
		streaming := func(b *testing.B, untimed int) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				comb, err := NewCombiner(sim)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if j == untimed {
						b.StartTimer()
					}
					if err := comb.Add(j, sets[j]); err != nil {
						b.Fatal(err)
					}
				}
				if _, _, err := comb.Result(nil); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run("streaming-total/"+size, func(b *testing.B) { streaming(b, 0) })
		b.Run("streaming-tail/"+size, func(b *testing.B) { streaming(b, n-1) })
	}
}
