package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"acme/internal/wire"
)

// fastFixtures builds one value per hot payload kind in several shapes
// (dense, quantized, top-k, delta, empty), beyond the one fully
// populated value per kind of the golden frames.
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

	blob := ParamBlob{Rows: 8, Cols: 12, Data: f64s(96), Mode: QuantLossless, Scale: 0}
	qblob := ParamBlob{Rows: 4, Cols: 4, Mode: QuantInt8, Quant: bts(16), Scale: 0.042}
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

// TestFastCodecMatchesReflect checks the schema codec on every fixture
// shape against a reflect walk of the Go type: the frame frameReader
// reads, tag by tag and field by field, must be exactly the encoding,
// and decoding it plain, entropy-coded and into an arena must give the
// fixture back and re-encode to the same bytes.
func TestFastCodecMatchesReflect(t *testing.T) {
	for i, v := range fastFixtures(t) {
		name := fmt.Sprintf("%d:%T", i, v)
		frame, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		typ := reflect.TypeOf(v)
		r := &frameReader{b: frame[1:]}
		if err := r.value(typ); err != nil {
			t.Fatalf("%s: the frame does not follow its type: %v", name, err)
		}
		if len(r.b) != 0 {
			t.Fatalf("%s: %d bytes left after the value", name, len(r.b))
		}
		for _, dec := range []struct {
			name  string
			frame []byte
			arena *wire.Arena
		}{
			{"plain", frame, nil},
			{"entropy", wire.EntropyCompress(frame), nil},
			{"arena", frame, &wire.Arena{}},
		} {
			got := reflect.New(typ)
			if err := wire.DecodeArena(dec.frame, got.Interface(), dec.arena); err != nil {
				t.Fatalf("%s: %s decode: %v", name, dec.name, err)
			}
			if !reflect.DeepEqual(got.Elem().Interface(), v) {
				t.Fatalf("%s: %s decode differs from the fixture", name, dec.name)
			}
			again, err := wire.Encode(got.Elem().Interface())
			if err != nil {
				t.Fatalf("%s: %s re-encode: %v", name, dec.name, err)
			}
			if !bytes.Equal(again, frame) {
				t.Fatalf("%s: %s decode re-encodes to different bytes", name, dec.name)
			}
		}
	}
}

// TestFastCodecRejectsMalformed checks the decoders fail, never panic,
// on every torn frame: each strict prefix of each fixture's frame is an
// error for the plain and the arena decode alike, as it is for the
// reflect walk of the type.
func TestFastCodecRejectsMalformed(t *testing.T) {
	for i, v := range fastFixtures(t) {
		data, err := wire.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf(v)
		var arena wire.Arena
		for cut := 0; cut < len(data); cut++ {
			if err := wire.Decode(data[:cut], reflect.New(typ).Interface()); err == nil {
				t.Fatalf("fixture %d %T: a %d-byte prefix of the %d-byte frame decodes", i, v, cut, len(data))
			}
			arena.Reset()
			if err := wire.DecodeArena(data[:cut], reflect.New(typ).Interface(), &arena); err == nil {
				t.Fatalf("fixture %d %T: a %d-byte prefix of the %d-byte frame decodes into an arena", i, v, cut, len(data))
			}
			if cut > 0 {
				r := &frameReader{b: data[1:cut]}
				if r.value(typ) == nil {
					t.Fatalf("fixture %d %T: the reflect walk reads a %d-byte prefix", i, v, cut)
				}
			}
		}
	}
}
