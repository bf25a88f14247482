package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"testing"

	"acme/internal/wire"
)

// fastFixtures builds one value per hot payload kind in several shapes
// (dense, quantized, top-k, delta, empty) for differential testing
// against the reflect oracle.
func fastFixtures(t testing.TB) []any {
	rng := rand.New(rand.NewSource(11))
	f32s := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
		return s
	}
	f64s := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	bts := func(n int) []byte {
		s := make([]byte, n)
		rng.Read(s)
		return s
	}
	bools := func(n int) []bool {
		s := make([]bool, n)
		for i := range s {
			s[i] = rng.Intn(3) == 0
		}
		return s
	}

	layers := [][]float64{f64s(96), f64s(33), f64s(7)}
	enc := &deltaEncoder{mode: QuantMixed}
	if _, err := enc.encodeLayers(layers); err != nil {
		t.Fatal(err)
	}
	for i := range layers {
		for j := 0; j < len(layers[i])/10+1; j++ {
			layers[i][rng.Intn(len(layers[i]))] += rng.NormFloat64()
		}
	}
	deltaPls, err := enc.encodeLayers(layers)
	if err != nil {
		t.Fatal(err)
	}

	blob := ParamBlob{Name: "w.0", Rows: 8, Cols: 12, Data: f64s(96), Mode: QuantLossless, Scale: 0}
	qblob := ParamBlob{Name: "w.1", Rows: 4, Cols: 4, Mode: QuantInt8, Quant: bts(16), Scale: 0.042}
	asg := BackboneAssignment{
		W: 0.75, D: 3, ActiveDepth: 2,
		Params:      []ParamBlob{blob, qblob},
		HeadMasks:   [][]bool{bools(4), bools(4)},
		NeuronMasks: [][]bool{bools(17), nil},
	}

	return []any{
		ImportanceUpload{DeviceID: 3, Layers: [][]float32{f32s(64), f32s(5), nil}},
		ImportanceUpload{},
		PersonalizedSet{Layers: [][]float32{f32s(40)}, Discard: 2, Done: true},
		PersonalizedSet{},
		DeltaUpload{DeviceID: 4, Round: 2, Layers: deltaPls},
		// A cold top-k round: sparse float16 records against zeros.
		DeltaUpload{DeviceID: 9, Layers: (&deltaEncoder{topK: 0.1}).encodeTopK([][]float64{f64s(50), f64s(1)})},
		DeltaUpload{DeviceID: 1, Round: 0, Layers: []DeltaLayerPayload{
			{Mode: QuantLossless, Delta: wire.DeltaLayer{N: 6, Elem: 4, Dense: true, Changed: bts(24)}},
		}},
		DownlinkDelta{Round: 3, Discard: 1, Done: true, Layers: deltaPls},
		DownlinkDelta{},
		RawShard{DeviceID: 5, X: [][]float64{f64s(12), f64s(12)}, Y: []int{0, 3}, Histogram: f64s(4)},
		RawShard{DeviceID: 6},
		asg,
		HeaderPackage{Backbone: asg, HeaderParams: []ParamBlob{blob}},
		HeaderPackage{},
	}
}

// TestFastCodecMatchesReflect is the differential gate for the
// hand-rolled codecs: their encodings must be byte-identical to the
// reflect walk, and decoding any of plain/oracle/entropy frames must
// produce identical values.
func TestFastCodecMatchesReflect(t *testing.T) {
	for i, v := range fastFixtures(t) {
		name := fmt.Sprintf("%d:%T", i, v)
		fast, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("%s: fast encode: %v", name, err)
		}
		oracle, err := wire.EncodeReflect(v)
		if err != nil {
			t.Fatalf("%s: reflect encode: %v", name, err)
		}
		if !bytes.Equal(fast, oracle) {
			t.Fatalf("%s: fast encoding differs from reflect oracle (%d vs %d bytes)", name, len(fast), len(oracle))
		}
		typ := reflect.TypeOf(v)
		fastDec := reflect.New(typ)
		if err := wire.Decode(fast, fastDec.Interface()); err != nil {
			t.Fatalf("%s: fast decode: %v", name, err)
		}
		oracleDec := reflect.New(typ)
		if err := wire.DecodeReflect(oracle, oracleDec.Interface()); err != nil {
			t.Fatalf("%s: reflect decode: %v", name, err)
		}
		if !reflect.DeepEqual(fastDec.Elem().Interface(), oracleDec.Elem().Interface()) {
			t.Fatalf("%s: fast decode differs from reflect decode", name)
		}
		coded := wire.EntropyCompress(fast)
		entDec := reflect.New(typ)
		if err := wire.Decode(coded, entDec.Interface()); err != nil {
			t.Fatalf("%s: entropy decode: %v", name, err)
		}
		if !reflect.DeepEqual(entDec.Elem().Interface(), oracleDec.Elem().Interface()) {
			t.Fatalf("%s: entropy round-trip differs from reflect decode", name)
		}
		// An arena-backed decode must agree too.
		var arena wire.Arena
		arenaDec := reflect.New(typ)
		if err := wire.DecodeArena(fast, arenaDec.Interface(), &arena); err != nil {
			t.Fatalf("%s: arena decode: %v", name, err)
		}
		if !reflect.DeepEqual(arenaDec.Elem().Interface(), oracleDec.Elem().Interface()) {
			t.Fatalf("%s: arena decode differs from reflect decode", name)
		}
	}
}

// TestFastCodecRejectsMalformed checks the fast decoders fail (never
// panic) on the same torn frames the reflect decoder rejects.
func TestFastCodecRejectsMalformed(t *testing.T) {
	for i, v := range fastFixtures(t) {
		data, err := wire.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf(v)
		for cut := 0; cut < len(data); cut += 1 + len(data)/37 {
			fastErr := wire.Decode(data[:cut], reflect.New(typ).Interface())
			oracleErr := wire.DecodeReflect(data[:cut], reflect.New(typ).Interface())
			if (fastErr == nil) != (oracleErr == nil) {
				t.Fatalf("fixture %d %T cut %d: fast err=%v, reflect err=%v", i, v, cut, fastErr, oracleErr)
			}
		}
	}
}

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

func benchCodec(b *testing.B, v any, decode func([]byte, any) error) {
	data, err := wire.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	dst := reflect.New(reflect.TypeOf(v)).Interface()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decode(data, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// The Fast/Reflect benchmark pairs below measure the decode ns/op win
// of the hand-rolled codecs over the reflect fallback on identical
// frames (make bench runs them with -benchtime=1x as a smoke).
func BenchmarkDecodeFast(b *testing.B) {
	var arena wire.Arena
	for name, v := range hotDecodeCases(b) {
		b.Run(name, func(b *testing.B) {
			benchCodec(b, v, func(data []byte, dst any) error {
				arena.Reset()
				return wire.DecodeArena(data, dst, &arena)
			})
		})
	}
}

func BenchmarkDecodeReflect(b *testing.B) {
	for name, v := range hotDecodeCases(b) {
		b.Run(name, func(b *testing.B) {
			benchCodec(b, v, wire.DecodeReflect)
		})
	}
}

func BenchmarkEncodeFast(b *testing.B) {
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

func BenchmarkEncodeReflect(b *testing.B) {
	for name, v := range hotDecodeCases(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wire.EncodeReflect(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
