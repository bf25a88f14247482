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
	Score float64
}

func (x *inner) WireFields(f *Fields) {
	f.Struct(3)
	f.String(&x.Name)
	f.Bool(&x.Flag)
	f.F64(&x.Score)
}

type sample struct {
	A int
	B []float64
	C string
	D [][]bool
	E []inner
	F [2][]bool
	H []int
	J []byte
	K []float32
	M float64
	N uint64
}

func (s *sample) WireFields(f *Fields) {
	f.Struct(11)
	f.Int(&s.A)
	f.F64s(&s.B)
	f.String(&s.C)
	List(f, &s.D, (*Fields).Bools)
	Records(f, &s.E)
	Array(f, s.F[:], (*Fields).Bools)
	f.Ints(&s.H)
	f.Bytes(&s.J)
	f.F32s(&s.K)
	f.F64(&s.M)
	f.Uint64(&s.N)
}

func (s sample) WireValue(f *Fields) { s.WireFields(f) }

func testSample() sample {
	return sample{
		A: -42,
		B: []float64{1.5, -2.25, math.Pi, 0},
		C: "hello wire",
		D: [][]bool{{true, false, true}, {false}},
		E: []inner{{Name: "x", Flag: true, Score: 0.5}, {Name: "y"}},
		F: [2][]bool{{true, true}, {false, true, false}},
		H: []int{-1, 0, 1, 1 << 20},
		J: []byte{0xde, 0xad},
		K: []float32{-0.5, 3},
		M: -math.MaxFloat64,
		N: 1<<63 + 5,
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

// scalars is one field of each scalar kind a record can hold.
type scalars struct {
	T, F    bool
	I       int
	I64     int64
	U       uint64
	U8      uint8
	X       float64
	Inf     float64
	NegZero float64
	S       string
	Empty   []float64
}

func (s *scalars) WireFields(f *Fields) {
	f.Struct(11)
	f.Bool(&s.T)
	f.Bool(&s.F)
	f.Int(&s.I)
	f.Int64(&s.I64)
	f.Uint64(&s.U)
	f.Uint8(&s.U8)
	f.F64(&s.X)
	f.F64(&s.Inf)
	f.F64(&s.NegZero)
	f.String(&s.S)
	f.F64s(&s.Empty)
}

func TestRoundTripScalars(t *testing.T) {
	in := scalars{T: true, I: 7, I64: -1 << 40, U: 1<<63 + 5, U8: 255, X: 3.75, Inf: math.Inf(1),
		NegZero: math.Copysign(0, -1), S: "str", Empty: []float64{}}
	raw, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out scalars
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	// Empty slices decode to nil; everything else must match.
	in.Empty = nil
	if !reflect.DeepEqual(in, out) || !math.Signbit(out.NegZero) {
		t.Fatalf("round trip %+v → %+v", in, out)
	}
}

type nan struct{ X float64 }

func (n *nan) WireFields(f *Fields) { f.F64(&n.X) }

func TestNaNRoundTrip(t *testing.T) {
	raw, err := Encode(&nan{math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	var out nan
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out.X) {
		t.Fatalf("NaN decoded to %v", out.X)
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
	raw, err := Encode(&nan{7})
	if err != nil {
		t.Fatal(err)
	}
	if err := Decode(raw, 7); err == nil {
		t.Fatal("non-pointer target must error")
	}
	var p *nan
	if err := Decode(raw, p); err == nil {
		t.Fatal("nil pointer target must error")
	}
}

type v1 struct{ A, B int }

func (v *v1) WireFields(f *Fields) {
	f.Struct(2)
	f.Int(&v.A)
	f.Int(&v.B)
}

type v2 struct{ A, B, C int }

func (v *v2) WireFields(f *Fields) {
	f.Struct(3)
	f.Int(&v.A)
	f.Int(&v.B)
	f.Int(&v.C)
}

func TestStructFieldCountMismatch(t *testing.T) {
	raw, err := Encode(&v1{A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	var out v2
	if err := Decode(raw, &out); err == nil {
		t.Fatal("schema mismatch must error, not silently mis-decode")
	}
}

// TestUnsupportedTypes: only records have a wire form. A value with no
// schema, or a nil record, is an error on both sides and has no raw
// size.
func TestUnsupportedTypes(t *testing.T) {
	for _, v := range []any{make(chan int), map[float64]int{1: 1}, 7, []float64{1}, (*v1)(nil), nil} {
		if _, err := Encode(v); err == nil {
			t.Fatalf("%T must be rejected at encode", v)
		}
		if RawSize(v) != 0 {
			t.Fatalf("%T has a raw size", v)
		}
	}
	raw, err := Encode(&v1{})
	if err != nil {
		t.Fatal(err)
	}
	var out int
	if err := Decode(raw, &out); err == nil {
		t.Fatal("a target with no schema must be rejected at decode")
	}
}

// bitSlice is a record that is not a struct: its frame is the bare
// packed slice.
type bitSlice []bool

func (b *bitSlice) WireFields(f *Fields) { f.Bools((*[]bool)(b)) }

func TestBoolSliceBitPacking(t *testing.T) {
	in := make(bitSlice, 100)
	for i := range in {
		in[i] = i%3 == 0
	}
	raw, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	// version + tag + varint(100) + 13 packed bytes
	if want := 1 + 1 + 1 + 13; len(raw) != want {
		t.Fatalf("bit packing: got %d bytes, want %d", len(raw), want)
	}
	var out bitSlice
	if err := Decode(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("bool slice mismatch")
	}
}

type upload struct {
	DeviceID int
	Layers   [][]float32
}

func (u *upload) WireFields(f *Fields) {
	f.Struct(2)
	f.Int(&u.DeviceID)
	List(f, &u.Layers, (*Fields).F32s)
}

func TestCompactVsGob(t *testing.T) {
	// The protocol-shaped payload the format exists for: dense float
	// layers. The binary encoding must beat per-message gob by a wide
	// margin (this is Table I's UploadBytes).
	layers := make([][]float32, 8)
	for i := range layers {
		layers[i] = make([]float32, 512)
		for j := range layers[i] {
			layers[i][j] = float32(i)*0.001 + float32(j)*0.1
		}
	}
	in := upload{DeviceID: 3, Layers: layers}

	wireRaw, err := Encode(&in)
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

type payload struct {
	A int
	B []float64
	C string
	D []float32
	E bool
}

func (p *payload) WireFields(f *Fields) {
	f.Struct(5)
	f.Int(&p.A)
	f.F64s(&p.B)
	f.String(&p.C)
	f.F32s(&p.D)
	f.Bool(&p.E)
}

func TestRawSize(t *testing.T) {
	in := payload{A: 1, B: make([]float64, 10), C: "abcd", D: make([]float32, 3), E: true}
	if got, want := RawSize(&in), 8+80+4+12+1; got != want {
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
	v := &layers{[]layer{{"w", make([]float64, 10000)}, {"b", make([]float64, 100)}}}
	raw := RawSize(v)
	grows := testing.AllocsPerRun(20, func() {
		b, _, err := EncodeLeased(v)
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

type layer struct {
	Name string
	Data []float64
}

func (l *layer) WireFields(f *Fields) {
	f.Struct(2)
	f.String(&l.Name)
	f.F64s(&l.Data)
}

type layers struct{ Layers []layer }

func (l *layers) WireFields(f *Fields) {
	f.Struct(1)
	Records(f, &l.Layers)
}
