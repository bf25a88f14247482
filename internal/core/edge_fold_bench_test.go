package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"acme/internal/aggregate"
	"acme/internal/importance"
	"acme/internal/transport"
	"acme/internal/wire"
)

// BenchmarkEdgeFold times the edge's side of Phase 2-2 rounds through
// edgeRound.fold and combine: 12 devices' uploads of a 12-layer header
// set (uploadLayerSizes) decoded into the round's leased rows and folded
// into leased accumulators, then the combine, whose sets go back to the
// pool as the edge's run gives them back. One op is one round of a
// 4-round loop; /dense ships ImportanceUploads, /delta DeltaUploads
// (QuantMixed lanes) against the round before. B/op is what a round
// allocates once the arena's block and the pool's slabs are warm.
func BenchmarkEdgeFold(b *testing.B) {
	const devices, rounds = 12, 4
	for _, wo := range []struct {
		name string
		opts WireOptions
	}{{"dense", WireOptions{}}, {"delta", WireOptions{Quantization: QuantMixed}}} {
		b.Run(wo.name, func(b *testing.B) {
			msgs := edgeFoldFrames(b, wo.opts, devices, rounds)
			cfg := DefaultConfig()
			cfg.Wire = wo.opts
			cfg.Phase2Rounds = rounds
			st := &edgeState{
				s:            &System{Cfg: cfg},
				order:        make([]int, devices),
				pos:          make(map[int]int, devices),
				sim:          aggregate.UniformMatrix(devices),
				loopState:    loopState{shadows: make([]deltaDecoder, devices)},
				resumedRound: -1,
				arena:        &wire.Arena{AliasInput: true},
			}
			for p := range st.order {
				st.pos[p] = p
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := i % rounds
				if t == 0 {
					clear(st.shadows)
				}
				r := &edgeRound{edgeState: st, t: t, folded: make([]bool, devices)}
				var err error
				if r.comb, err = aggregate.NewCombinerFor(st.sim, nil); err != nil {
					b.Fatal(err)
				}
				for _, msg := range msgs[t] {
					if err := r.fold(msg); err != nil {
						b.Fatal(err)
					}
				}
				combined, _, err := r.combine()
				if err != nil {
					b.Fatal(err)
				}
				importance.ReleaseAll(combined)
				r.rows.Release()
			}
		})
	}
}

// edgeFoldFrames encodes every device's upload of every round as the
// device would send it.
func edgeFoldFrames(b *testing.B, wo WireOptions, devices, rounds int) [][]transport.Message {
	rng := rand.New(rand.NewSource(17))
	s := &System{Cfg: DefaultConfig()}
	s.Cfg.Wire = wo
	msgs := make([][]transport.Message, rounds)
	for p := 0; p < devices; p++ {
		layers := make([][]float64, len(uploadLayerSizes))
		for i, n := range uploadLayerSizes {
			layers[i] = make([]float64, n)
			for j := range layers[i] {
				g := rng.NormFloat64()
				layers[i][j] = g * g
			}
		}
		enc := s.uplinkEncoder()
		for t := 0; t < rounds; t++ {
			benchPerturb(rng, layers)
			kind, val := transport.KindImportanceSet, any(ImportanceUpload{DeviceID: p, Layers: quantizeSetInto(nil, layers)})
			if wo.deltaRecords() {
				up, err := enc.encode(p, t, layers)
				if err != nil {
					b.Fatal(err)
				}
				kind, val = transport.KindImportanceDelta, up
			}
			buf, _, err := s.encodePayload(kind, val)
			if err != nil {
				b.Fatal(err)
			}
			msgs[t] = append(msgs[t], transport.Message{Kind: kind, From: fmt.Sprintf("device-%d", p), Round: t, Payload: slices.Clone(buf.B)})
			buf.Release()
		}
	}
	return msgs
}
