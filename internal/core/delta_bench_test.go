package core

import (
	"math/rand"
	"testing"

	"acme/internal/transport"
)

// benchImportanceLayers builds a header-sized importance set with the
// heavy-tailed magnitudes of squared Taylor terms.
func benchImportanceLayers(rng *rand.Rand) [][]float64 {
	sizes := []int{4096, 1024, 256, 64}
	out := make([][]float64, len(sizes))
	for i, sz := range sizes {
		out[i] = make([]float64, sz)
		for j := range out[i] {
			g := rng.NormFloat64()
			out[i][j] = g * g
		}
	}
	return out
}

// benchPerturb emulates one round of local training: a few percent of
// the entries drift slightly.
func benchPerturb(rng *rand.Rand, layers [][]float64) {
	for _, l := range layers {
		for j := range l {
			if rng.Float64() < 0.05 {
				l[j] *= 1 + 0.01*rng.NormFloat64()
			}
		}
	}
}

// BenchmarkDownlinkRound measures the symmetric edge→device exchange
// of one personalized set over a 4-round loop: payload build, binary
// wire encode, decode, and dense reconstruction on the device,
// reporting the average wire bytes per round. Dense is the legacy
// PersonalizedSet path; DeltaMixed is the headline DownlinkDelta
// combination.
func BenchmarkDownlinkRound(b *testing.B) {
	cases := []struct {
		name  string
		mode  QuantMode
		delta bool
	}{
		{"Dense", QuantLossless, false},
		{"Delta", QuantLossless, true},
		{"Mixed", QuantMixed, false},
		{"DeltaMixed", QuantMixed, true},
	}
	const rounds = 4
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var bytesPerRound int64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(43))
				layers := benchImportanceLayers(rng)
				enc := &deltaEncoder{mode: c.mode}
				var dec deltaDecoder
				var total int64
				for t := 0; t < rounds; t++ {
					var payload []byte
					var err error
					if c.delta {
						pls, e := enc.encodeLayers(layers)
						if e != nil {
							b.Fatal(e)
						}
						dd := DownlinkDelta{Round: t, Discard: 4 * (t + 1), Done: t == rounds-1, Layers: pls}
						if payload, err = transport.Binary.Encode(dd); err != nil {
							b.Fatal(err)
						}
						var got DownlinkDelta
						if err := transport.Binary.Decode(payload, &got); err != nil {
							b.Fatal(err)
						}
						if _, err := dec.applyLayers(got.Layers); err != nil {
							b.Fatal(err)
						}
					} else {
						ps := PersonalizedSet{Discard: 4 * (t + 1), Done: t == rounds-1}
						if c.mode == QuantLossless {
							ps.Layers = quantizeSet(layers)
						} else {
							if ps.Quant, err = quantizeLayers(layers, c.mode); err != nil {
								b.Fatal(err)
							}
						}
						if payload, err = transport.Binary.Encode(ps); err != nil {
							b.Fatal(err)
						}
						var got PersonalizedSet
						if err := transport.Binary.Decode(payload, &got); err != nil {
							b.Fatal(err)
						}
						if _, err := got.layers(); err != nil {
							b.Fatal(err)
						}
					}
					total += int64(len(payload))
					benchPerturb(rng, layers)
				}
				bytesPerRound = total / rounds
			}
			b.ReportMetric(float64(bytesPerRound), "wire-bytes/round")
		})
	}
}

// BenchmarkImportanceRound measures the full device→edge exchange of
// one importance set over a 4-round loop: payload build, binary wire
// encode, decode, and dense reconstruction, reporting the average wire
// bytes per round. Dense is the PR 2 lossless baseline; Delta adds
// round t vs t−1 encoding; Mixed adds the per-layer float16/int8
// ladder; DeltaMixed is the headline combination.
func BenchmarkImportanceRound(b *testing.B) {
	cases := []struct {
		name  string
		mode  QuantMode
		delta bool
	}{
		{"Dense", QuantLossless, false},
		{"Delta", QuantLossless, true},
		{"Mixed", QuantMixed, false},
		{"DeltaMixed", QuantMixed, true},
	}
	const rounds = 4
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var bytesPerRound int64
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(42))
				layers := benchImportanceLayers(rng)
				enc := &deltaEncoder{mode: c.mode}
				var dec deltaDecoder
				var total int64
				for t := 0; t < rounds; t++ {
					var payload []byte
					var err error
					if c.delta {
						up, e := enc.encode(1, t, layers)
						if e != nil {
							b.Fatal(e)
						}
						if payload, err = transport.Binary.Encode(up); err != nil {
							b.Fatal(err)
						}
						var got DeltaUpload
						if err := transport.Binary.Decode(payload, &got); err != nil {
							b.Fatal(err)
						}
						if _, err := dec.apply(got); err != nil {
							b.Fatal(err)
						}
					} else {
						up := ImportanceUpload{DeviceID: 1}
						if c.mode == QuantLossless {
							up.Layers = quantizeSet(layers)
						} else {
							if up.Quant, err = quantizeLayers(layers, c.mode); err != nil {
								b.Fatal(err)
							}
						}
						if payload, err = transport.Binary.Encode(up); err != nil {
							b.Fatal(err)
						}
						var got ImportanceUpload
						if err := transport.Binary.Decode(payload, &got); err != nil {
							b.Fatal(err)
						}
						if _, err := got.layers(0); err != nil {
							b.Fatal(err)
						}
					}
					total += int64(len(payload))
					benchPerturb(rng, layers)
				}
				bytesPerRound = total / rounds
			}
			b.ReportMetric(float64(bytesPerRound), "wire-bytes/round")
		})
	}
}
