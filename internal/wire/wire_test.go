package wire

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"
)

type inner struct {
	Name  string
	Flag  bool
	Score float32
}

type sample struct {
	A int
	B []float64
	C string
	D [][]bool
	E []inner
	F [2][]bool
	G map[int]string
	H []int32
	I []uint16
	J []byte
	K []int8
	L *inner
	M float64
}

func testSample() sample {
	return sample{
		A: -42,
		B: []float64{1.5, -2.25, math.Pi, 0},
		C: "hello wire",
		D: [][]bool{{true, false, true}, {false}},
		E: []inner{{Name: "x", Flag: true, Score: 0.5}, {Name: "y"}},
		F: [2][]bool{{true, true}, {false, true, false}},
		G: map[int]string{3: "c", 1: "a", 2: "b"},
		H: []int32{-1, 0, 1, 1 << 20},
		I: []uint16{0, 1, 65535},
		J: []byte{0xde, 0xad},
		K: []int8{-128, 0, 127},
		L: &inner{Name: "ptr"},
		M: -math.MaxFloat64,
	}
}

func TestRoundTrip(t *testing.T) {
	in := testSample()
	raw, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out sample
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestRoundTripScalars(t *testing.T) {
	checks := []any{
		true, false, int(7), int64(-1 << 40), uint64(1<<63 + 5),
		3.75, float32(-0.5), "str", []float64{}, []string{"a", "b"},
		math.Inf(1), math.Copysign(0, -1),
	}
	for _, in := range checks {
		raw, err := Encode(in)
		if err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		out := reflect.New(reflect.TypeOf(in))
		if err := Decode(raw, out.Interface()); err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		got := out.Elem().Interface()
		if len(raw) > 0 && !reflect.DeepEqual(in, got) {
			// Empty slices decode to nil; everything else must match.
			if v := reflect.ValueOf(in); !(v.Kind() == reflect.Slice && v.Len() == 0) {
				t.Fatalf("round trip %v → %v", in, got)
			}
		}
	}
}

func TestNaNRoundTrip(t *testing.T) {
	raw, err := Encode(math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	var out float64
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out) {
		t.Fatalf("NaN decoded to %v", out)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid, err := Encode(testSample())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad version":    {99, tInt, 2},
		"truncated":      valid[:len(valid)/2],
		"trailing bytes": append(append([]byte{}, valid...), 0xff),
		"huge length":    {Version, tF64s, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"wrong tag":      {Version, tString, 1, 'x'},
	}
	for name, data := range cases {
		var out sample
		if err := Decode(data, &out); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeTargetValidation(t *testing.T) {
	raw, _ := Encode(7)
	if err := Decode(raw, 7); err == nil {
		t.Fatal("non-pointer target must error")
	}
	var p *int
	if err := Decode(raw, p); err == nil {
		t.Fatal("nil pointer target must error")
	}
}

func TestStructFieldCountMismatch(t *testing.T) {
	type v1 struct{ A, B int }
	type v2 struct{ A, B, C int }
	raw, err := Encode(v1{A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	var out v2
	if err := Decode(raw, &out); err == nil {
		t.Fatal("schema mismatch must error, not silently mis-decode")
	}
}

func TestUnsupportedTypes(t *testing.T) {
	if _, err := Encode(make(chan int)); err == nil {
		t.Fatal("chan must be rejected")
	}
	if _, err := Encode(map[float64]int{1: 1}); err == nil {
		t.Fatal("float-keyed map must be rejected")
	}
	// Nested pointers cannot round-trip (a nil inner pointer is
	// indistinguishable from a nil outer pointer on the wire), so they
	// must be rejected on both sides rather than silently flattened.
	inner := (*int)(nil)
	type nested struct{ P **int }
	if _, err := Encode(nested{P: &inner}); err == nil {
		t.Fatal("nested pointer must be rejected at encode")
	}
	raw, err := Encode(struct{ P *int }{})
	if err != nil {
		t.Fatal(err)
	}
	var out nested
	if err := Decode(raw, &out); err == nil {
		t.Fatal("nested pointer must be rejected at decode")
	}
}

func TestMapDeterminism(t *testing.T) {
	m := map[string]int{"z": 26, "a": 1, "m": 13, "q": 17}
	first, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatal("map encoding is not deterministic")
		}
	}
}

func TestBoolSliceBitPacking(t *testing.T) {
	in := make([]bool, 100)
	for i := range in {
		in[i] = i%3 == 0
	}
	raw, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	// version + tag + varint(100) + 13 packed bytes
	if want := 1 + 1 + 1 + 13; len(raw) != want {
		t.Fatalf("bit packing: got %d bytes, want %d", len(raw), want)
	}
	var out []bool
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("bool slice mismatch")
	}
}

func TestCompactVsGob(t *testing.T) {
	// The protocol-shaped payload the format exists for: dense float
	// layers. The binary encoding must beat per-message gob by a wide
	// margin (this is Table I's UploadBytes).
	type upload struct {
		DeviceID int
		Layers   [][]float32
	}
	layers := make([][]float32, 8)
	for i := range layers {
		layers[i] = make([]float32, 512)
		for j := range layers[i] {
			layers[i][j] = float32(i)*0.001 + float32(j)*0.1
		}
	}
	in := upload{DeviceID: 3, Layers: layers}

	wireRaw, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	if float64(len(wireRaw)) > 0.85*float64(buf.Len()) {
		t.Fatalf("binary %d bytes vs gob %d: want ≥15%% smaller", len(wireRaw), buf.Len())
	}
}

func TestRawSize(t *testing.T) {
	type payload struct {
		A int
		B []float64
		C string
		D []float32
		E bool
	}
	in := payload{A: 1, B: make([]float64, 10), C: "abcd", D: make([]float32, 3), E: true}
	if got, want := RawSize(in), 8+80+4+12+1; got != want {
		t.Fatalf("RawSize = %d, want %d", got, want)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	in := testSample()
	a, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

// TestEncodeLeasedGrowsOnceToSize: a leased encode grows an empty pooled
// Buffer once, to the frame's size, where append alone would grow it
// through many steps and allocate several times the frame.
func TestEncodeLeasedGrowsOnceToSize(t *testing.T) {
	if raceEnabled {
		t.Skip("-race allocates on its own")
	}
	type layer struct {
		Name string
		Data []float64
	}
	v := &struct{ Layers []layer }{[]layer{{"w", make([]float64, 10000)}, {"b", make([]float64, 100)}}}
	raw := RawSize(v)
	grows := testing.AllocsPerRun(20, func() {
		b, err := EncodeLeased(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.B) < raw {
			t.Fatalf("frame %d bytes, payload %d", len(b.B), raw)
		}
		b.B = nil // back to the pool empty: the next lease starts from nothing
		b.Release()
	})
	if grows != 1 {
		t.Fatalf("%v allocations per encode from an empty Buffer, want 1", grows)
	}
}
