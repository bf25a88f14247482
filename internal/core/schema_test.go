package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"

	"acme/internal/wire"
)

func hotDecodeCases(t testing.TB) map[string]any {
	rng := rand.New(rand.NewSource(7))
	layers := make([][]float64, 6)
	for i := range layers {
		layers[i] = make([]float64, 400)
		for j := range layers[i] {
			layers[i][j] = rng.NormFloat64()
		}
	}
	f32layers := make([][]float32, len(layers))
	for i, l := range layers {
		f32layers[i] = make([]float32, len(l))
		for j, v := range l {
			f32layers[i][j] = float32(v)
		}
	}
	enc := &deltaEncoder{mode: QuantMixed}
	if _, err := enc.encodeLayers(layers); err != nil {
		t.Fatal(err)
	}
	for i := range layers {
		for j := 0; j < 40; j++ {
			layers[i][rng.Intn(len(layers[i]))] += rng.NormFloat64()
		}
	}
	pls, err := enc.encodeLayers(layers)
	if err != nil {
		t.Fatal(err)
	}
	x := make([][]float64, 32)
	for i := range x {
		x[i] = layers[i%len(layers)][:64]
	}
	return map[string]any{
		"importance-set":   ImportanceUpload{DeviceID: 1, Layers: f32layers},
		"importance-delta": DeltaUpload{DeviceID: 1, Round: 1, Layers: pls},
		"downlink-delta":   DownlinkDelta{Round: 1, Layers: pls},
		"personalized-set": PersonalizedSet{Layers: f32layers, Discard: 1},
		"raw-shard":        RawShard{DeviceID: 2, X: x, Y: make([]int, 32), Histogram: layers[0][:10]},
	}
}

// TestHotDecodeZeroAllocs proves the acceptance criterion directly:
// steady-state decode of the hot kinds into a reused target performs
// zero allocations — in particular, zero float-slice allocations.
func TestHotDecodeZeroAllocs(t *testing.T) {
	for name, v := range hotDecodeCases(t) {
		t.Run(name, func(t *testing.T) {
			data, err := wire.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			dst := reflect.New(reflect.TypeOf(v)).Interface()
			var arena wire.Arena
			decode := func() {
				arena.Reset()
				if err := wire.DecodeArena(data, dst, &arena); err != nil {
					t.Fatal(err)
				}
			}
			decode() // warm the target's slices and the arena blocks
			if n := testing.AllocsPerRun(50, decode); n > 0 {
				t.Fatalf("steady-state decode allocates %.1f times per op, want 0", n)
			}
		})
	}
}

// uploadLayerSizes are the layer lengths of a 12-layer header's
// importance set: several are longer than an arena block.
var uploadLayerSizes = []int{4608, 32, 1536, 32, 7000, 160, 2560, 64, 10, 3200, 100, 1000}

// uploadFrames encodes one ImportanceUpload of uploadLayerSizes into a
// frame at each byte offset 0–3 of a buffer, so that its float data is
// 4-byte aligned in at most one of them.
func uploadFrames(t testing.TB) (ImportanceUpload, [4][]byte) {
	rng := rand.New(rand.NewSource(5))
	up := ImportanceUpload{DeviceID: 3, Layers: make([][]float32, len(uploadLayerSizes))}
	for i, n := range uploadLayerSizes {
		up.Layers[i] = make([]float32, n)
		for j := range up.Layers[i] {
			up.Layers[i][j] = rng.Float32()
		}
	}
	data, err := wire.Encode(up)
	if err != nil {
		t.Fatal(err)
	}
	var frames [4][]byte
	for off := range frames {
		frames[off] = make([]byte, off+len(data))[off:]
		copy(frames[off], data)
	}
	return up, frames
}

// TestFreshTargetDecodeCarvesNoFloats is the decode the edge runs: a
// fresh ImportanceUpload per message and one arena, reset before each
// decode, that may alias the frame. At every byte offset of the frame,
// after one warm-up each layer aliases the frame or is carved from the
// arena's block, so a decode allocates its layer list and no float
// slice.
func TestFreshTargetDecodeCarvesNoFloats(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts are not measured under -race")
	}
	want, frames := uploadFrames(t)
	for off, frame := range frames {
		t.Run(fmt.Sprintf("offset-%d", off), func(t *testing.T) {
			arena := &wire.Arena{AliasInput: true}
			var got ImportanceUpload
			decode := func() {
				arena.Reset()
				got = ImportanceUpload{}
				if err := wire.DecodeArena(frame, &got, arena); err != nil {
					t.Fatal(err)
				}
			}
			decode() // warm the arena's block
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			if n := testing.AllocsPerRun(50, decode); n > 1 {
				t.Fatalf("decode into a fresh target allocates %.1f times, want 1 (the layer list)", n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("decoded upload differs from the encoded one")
			}
		})
	}
}

// BenchmarkDecodeFreshTarget times TestFreshTargetDecodeCarvesNoFloats'
// decode: a fresh ImportanceUpload, one reused arena, the frame at
// byte offsets 0–3.
func BenchmarkDecodeFreshTarget(b *testing.B) {
	_, frames := uploadFrames(b)
	for off, frame := range frames {
		b.Run(fmt.Sprintf("offset-%d", off), func(b *testing.B) {
			arena := &wire.Arena{AliasInput: true}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arena.Reset()
				var up ImportanceUpload
				if err := wire.DecodeArena(frame, &up, arena); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode times the hot kinds' steady-state decode into a
// reused target with a reused arena (make bench runs it with
// -benchtime=1x as a smoke).
func BenchmarkDecode(b *testing.B) {
	var arena wire.Arena
	for name, v := range hotDecodeCases(b) {
		b.Run(name, func(b *testing.B) {
			data, err := wire.Encode(v)
			if err != nil {
				b.Fatal(err)
			}
			dst := reflect.New(reflect.TypeOf(v)).Interface()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arena.Reset()
				if err := wire.DecodeArena(data, dst, &arena); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	for name, v := range hotDecodeCases(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wire.Encode(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
