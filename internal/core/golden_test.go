package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"acme/internal/chaos"
	"acme/internal/energy"
	"acme/internal/importance"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/wire"
)

// goldenCase is one frame kind's fixture, its file under
// testdata/golden and its wire.RawSize. The frames and sizes were
// recorded with the reflect walk the schema cursor replaced, so they pin
// the wire format itself: any schema that drifts from it fails here.
// The four frames that carry parameter blobs were re-recorded when
// blobs stopped carrying their parameter's name: each is its old
// recording with every blob's name string cut out and the blob's field
// count lowered from 7 to 6, byte for byte. EdgeSnapshot was re-recorded
// again when it stopped carrying a membership registry: its previous
// recording with the trailing member list and epoch cut off and its
// field count lowered from 18 to 16, byte for byte.
type goldenCase struct {
	name  string
	value any
	raw   int
}

// goldenFixtures builds one fully populated value per frame kind. Every
// exported field of every record is non-zero somewhere
// (TestGoldenFixturesPopulateEveryField), so a field left out of a
// schema fails the round trip. With empty set, the slices the fixtures
// leave nil are empty instead: both must encode to the same bytes, and
// both decode as nil.
func goldenFixtures(empty bool) []goldenCase {
	nilOr := func(v any) any {
		if empty {
			return v
		}
		return reflect.Zero(reflect.TypeOf(v)).Interface()
	}
	profile := energy.Profile{GPU: 31.5, PowerPerUnit: 2.25, BatchPower: 0.125, Patches: 16,
		BaseLatency: 0.75, LatencyPerUnit: 0.0625, Epochs: 3}
	dense := ParamBlob{Rows: 2, Cols: 3, Data: []float64{1.5, -2.25, 0, 3e-9, -7, 1e300},
		Mode: QuantLossless, Quant: nilOr([]byte{}).([]byte)}
	int8Blob := ParamBlob{Rows: 3, Cols: 2, Data: nilOr([]float64{}).([]float64),
		Mode: QuantInt8, Quant: []byte{0x81, 0x00, 0x7f, 0x10, 0xf0, 0x01}, Scale: 0.0421875}
	f16Blob := ParamBlob{Rows: 1, Cols: 2, Mode: QuantFloat16, Quant: []byte{0x00, 0x3c, 0x00, 0xbc}}
	asg := BackboneAssignment{
		W: 0.75, D: 3, ActiveDepth: 2,
		Cfg:         nn.BackboneConfig{InputDim: 32, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 16, Depth: 3},
		Params:      []ParamBlob{dense, int8Blob, f16Blob},
		HeadMasks:   [][]bool{{true, false}, nilOr([]bool{}).([]bool), {false, true}},
		NeuronMasks: [][]bool{{true, true, false, true, false, false, true, true, true}, {false}, {true}},
		Candidate:   pareto.Candidate{W: 0.75, D: 3, Loss: 0.4375, Energy: 12.5, Size: 2048, Accuracy: 0.8125},
	}
	pkg := HeaderPackage{
		Backbone:  asg,
		HeaderCfg: nas.HeaderConfig{Blocks: 2, Repeats: 1, DModel: 8, Hidden: 12, NumClasses: 5, TrainBackbone: true},
		Arch: nas.Architecture{Blocks: []nas.BlockGene{
			{In1: 0, In2: 1, Op1: nas.OpConv3, Op2: nas.OpIdentity},
			{In1: 2, In2: 0, Op1: nas.OpMaxPool, Op2: nas.OpConv1},
		}},
		HeaderParams: []ParamBlob{dense, f16Blob},
		Masks: nas.HeaderMasks{
			Hidden: []bool{true, false, true},
			Ops: [][][2][]bool{
				{{{true, false}, nilOr([]bool{}).([]bool)}, {{true}, {false, true, true}}},
				nilOr([][2][]bool{}).([][2][]bool),
			},
		},
	}
	layers := [][]float32{{0.5, -1.25, 3.4e38, -0}, nilOr([]float32{}).([]float32), {1e-7}}
	sparse := wire.DiffLayer([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
		[]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 0xaa, 20}, 2)
	if sparse.Dense {
		panic("golden fixture: the sparse delta came out dense")
	}
	denseDelta := wire.DeltaLayer{N: 2, Elem: 4, Dense: true, Mask: nilOr([]byte{}).([]byte),
		Changed: []byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0}}
	deltaLayers := []DeltaLayerPayload{
		{Mode: QuantInt8, Scale: 0.015625, Delta: sparse},
		{Mode: QuantLossless, Delta: denseDelta},
	}
	packed := []packedLayer{{mode: QuantFloat16, scale: 0.5, data: []byte{1, 2, 3, 4}}, {mode: QuantLossless, data: []byte{9}}}
	snap := EdgeSnapshot{
		RunTag: "00c0ffee00c0ffee", EdgeID: 1, Round: 4,
		Pkg: pkg,
		Sim: [][]float64{{1, 0.25}, {0.25, 1}, nilOr([]float64{}).([]float64)},
		loop: loopState{
			departed:    []bool{false, true},
			doneTold:    []bool{true, false},
			rejoinRound: []int{-1, 3},
			lastSampled: []int{4, -1},
			shadows:     []deltaDecoder{{shadow{prev: packed, warm: true}}, {shadow{prev: nilOr([]packedLayer{}).([]packedLayer)}}},
			downEncs:    []*deltaEncoder{{mode: QuantMixed, shadow: shadow{prev: packed, warm: true}}, {mode: QuantInt8}},
			prev:        []*importance.Set{{Layers: [][]float64{{0.5, -0.5}, {2}}}, nilOr(&importance.Set{Layers: [][]float64{}}).(*importance.Set)},
			lastRound:   9,
		},
		Detector: chaos.State{
			Strikes: []chaos.StrikeEntry{{ID: 2, N: 1}, {ID: 5, N: 3}},
			Evicted: []int{5},
			Prev:    []chaos.SampleEntry{{ID: 2, Values: []float64{0.125, -8}}, {ID: 3}},
		},
		HaveDetector: true,
	}
	return []goldenCase{
		{"ControlRecord", wire.ControlRecord{Type: wire.ControlRoundCutoff, Node: "edge-1", Device: 7, Round: -3, Done: true}, 24},
		{"DeviceStats", DeviceStats{ID: 4, VCPUs: 8, GPU: 0.5, Storage: 2.5e9, Profile: profile, NumSamples: 120}, 96},
		{"ClusterStats", ClusterStats{EdgeID: 1, MinStorage: 1.5e9, Profile: profile, DeviceIDs: []int{3, -1, 70000}}, 96},
		{"RawShard", RawShard{DeviceID: 6, X: [][]float64{{1, 2, 3}, nilOr([]float64{}).([]float64), {-4, 5.5, 6}},
			Y: []int{0, 4, -2}, Histogram: []float64{0.25, 0.75}}, 96},
		{"BackboneAssignment", asg, 289},
		{"HeaderPackage", pkg, 519},
		{"ImportanceUpload", ImportanceUpload{DeviceID: 3, Layers: layers}, 28},
		{"PersonalizedSet", PersonalizedSet{Layers: layers, Discard: 2, Done: true}, 29},
		{"DeltaUpload", DeltaUpload{DeviceID: 5, Round: 2, Layers: deltaLayers}, 94},
		{"DownlinkDelta", DownlinkDelta{Round: 2, Discard: 1, Done: true, Layers: deltaLayers}, 95},
		{"DeviceReport", DeviceReport{DeviceID: 3, EdgeID: 1, Width: 0.5, Depth: 2, AccuracyCoarse: 0.625,
			AccuracyFinal: 0.875, Energy: 4.5, BackboneParams: 9000, HeaderParams: 1200}, 72},
		{"EdgeSnapshot", snap, 819},
		{"DeviceSnapshot", DeviceSnapshot{RunTag: "feedfacefeedface", DeviceID: 3, Round: 5, Package: pkg}, 551},
	}
}

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name+".bin") }

// TestGoldenFrames pins every frame kind's bytes and raw size, and
// checks that the golden frame decodes back to the fixture plain,
// entropy-coded and into an arena, and that every strict prefix of it
// is an error, never a panic.
func TestGoldenFrames(t *testing.T) {
	emptied := goldenFixtures(true)
	for i, c := range goldenFixtures(false) {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(goldenPath(c.name))
			if err != nil {
				t.Fatal(err)
			}
			// Every kind encodes by pointer; the kinds sent or written
			// by value (all but EdgeSnapshot) encode by value too.
			encodings := []any{pointerTo(c.value), pointerTo(emptied[i].value)}
			if _, ok := c.value.(wire.Value); ok {
				encodings = append(encodings, c.value)
			} else if c.name != "EdgeSnapshot" {
				t.Fatalf("%s has no WireValue", c.name)
			}
			for _, v := range encodings {
				got, err := wire.Encode(v)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%T encodes to %d bytes that differ from the golden frame's %d", v, len(got), len(want))
				}
				if raw := wire.RawSize(v); raw != c.raw {
					t.Fatalf("RawSize(%T) = %d, want %d", v, raw, c.raw)
				}
			}
			typ := reflect.TypeOf(c.value)
			coded := wire.EntropyCompress(want)
			for _, dec := range []struct {
				name  string
				frame []byte
				arena *wire.Arena
			}{
				{"plain", want, nil},
				{"entropy", coded, nil},
				{"arena", want, &wire.Arena{}},
				{"arena-alias", want, &wire.Arena{AliasInput: true}},
			} {
				got := reflect.New(typ)
				if err := wire.DecodeArena(dec.frame, got.Interface(), dec.arena); err != nil {
					t.Fatalf("%s decode: %v", dec.name, err)
				}
				if !reflect.DeepEqual(got.Elem().Interface(), c.value) {
					t.Fatalf("%s decode differs from the fixture:\n got %+v\nwant %+v", dec.name, got.Elem().Interface(), c.value)
				}
			}
			for cut := range want {
				if err := wire.Decode(want[:cut], reflect.New(typ).Interface()); err == nil {
					t.Fatalf("a %d-byte prefix of the %d-byte frame decodes without error", cut, len(want))
				}
			}
		})
	}
}

func pointerTo(v any) any {
	p := reflect.New(reflect.TypeOf(v))
	p.Elem().Set(reflect.ValueOf(v))
	return p.Interface()
}

// unframed are the fields of the edge's live loop state that no schema
// writes: a shadow's lease, and the top-k fraction only an uplink
// encoder has.
var unframed = map[string]bool{"core.shadow.buf": true, "core.deltaEncoder.topK": true}

// TestGoldenFixturesPopulateEveryField: every exported field of every
// struct type the fixtures reach, and every field of this package's
// loop-state types that a schema frames, is non-zero in at least one
// instance, so a schema that leaves a field out cannot round-trip its
// fixture.
func TestGoldenFixturesPopulateEveryField(t *testing.T) {
	seen := map[string]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				sf := v.Type().Field(i)
				key := v.Type().String() + "." + sf.Name
				if unframed[key] || !sf.IsExported() && v.Type().PkgPath() != reflect.TypeFor[EdgeSnapshot]().PkgPath() {
					continue
				}
				seen[key] = seen[key] || !v.Field(i).IsZero()
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		}
	}
	for _, c := range goldenFixtures(false) {
		walk(reflect.ValueOf(c.value))
	}
	for key, nonZero := range seen {
		if !nonZero {
			t.Errorf("no golden fixture sets %s", key)
		}
	}
}

// frameForms are the frame layouts of the types whose Go fields are not
// their frame: the edge's live loop state, which EdgeSnapshot carries
// inline and frames from the buffers the loop runs on.
var frameForms = map[reflect.Type]reflect.Type{
	reflect.TypeFor[EdgeSnapshot](): reflect.TypeFor[struct {
		RunTag                   string
		EdgeID, Round            int
		Pkg                      HeaderPackage
		Sim                      [][]float64
		Departed, DoneTold       []bool
		RejoinRound, LastSampled []int
		Shadows                  []deltaDecoder
		DownEncs                 []*deltaEncoder
		Prev                     []*importance.Set
		HavePrev                 bool
		LastRound                int
		Detector                 chaos.State
		HaveDetector             bool
	}](),
	reflect.TypeFor[deltaDecoder](): reflect.TypeFor[struct {
		Warm   bool
		Layers []packedLayer
	}](),
	reflect.TypeFor[*deltaEncoder](): reflect.TypeFor[struct {
		Warm   bool
		Mode   QuantMode
		Layers []packedLayer
	}](),
	reflect.TypeFor[packedLayer](): reflect.TypeFor[struct {
		Mode  QuantMode
		Scale float64
		Data  []byte
	}](),
	reflect.TypeFor[*importance.Set](): reflect.TypeFor[[][]float64](),
}

// TestGoldenStructFramesCountExportedFields reads every golden frame
// against its Go type (its frameForms layout, where it has one): each
// value's tag fits the field's kind, and each struct frame's field
// count is its type's exported field count.
func TestGoldenStructFramesCountExportedFields(t *testing.T) {
	for _, c := range goldenFixtures(false) {
		frame, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			t.Fatal(err)
		}
		r := &frameReader{b: frame[1:]}
		if err := r.value(reflect.TypeOf(c.value)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(r.b) != 0 {
			t.Fatalf("%s: %d bytes left after the value", c.name, len(r.b))
		}
	}
}

// Wire tags, as the format defines them.
const (
	tagFalse, tagTrue, tagInt, tagUint, tagF64 = 0x01, 0x02, 0x03, 0x04, 0x05
	tagString, tagBytes, tagF64s, tagF32s      = 0x07, 0x08, 0x09, 0x0a
	tagInts, tagBools, tagList, tagStruct      = 0x0b, 0x0d, 0x0e, 0x0f
)

// frameReader walks a frame guided by a Go type.
type frameReader struct{ b []byte }

func (r *frameReader) uvarint() (int, error) {
	u, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("bad varint")
	}
	r.b = r.b[n:]
	return int(u), nil
}

func (r *frameReader) tag(want byte, typ reflect.Type) error {
	if len(r.b) == 0 || r.b[0] != want {
		return fmt.Errorf("%s: want tag 0x%02x, have % x", typ, want, r.b[:min(len(r.b), 4)])
	}
	r.b = r.b[1:]
	return nil
}

func (r *frameReader) skip(n int) error {
	if n > len(r.b) {
		return fmt.Errorf("%d bytes past the frame", n-len(r.b))
	}
	r.b = r.b[n:]
	return nil
}

// packed reads a packed slice frame: tag, count, count×width bytes
// (bits, when width is 0; varints, when width is -1).
func (r *frameReader) packed(tag byte, typ reflect.Type, width int) error {
	if err := r.tag(tag, typ); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	switch width {
	case 0:
		return r.skip((n + 7) / 8)
	case -1:
		for ; n > 0; n-- {
			if _, err := r.uvarint(); err != nil {
				return err
			}
		}
		return nil
	}
	return r.skip(n * width)
}

func (r *frameReader) value(typ reflect.Type) error {
	if form, ok := frameForms[typ]; ok {
		typ = form
	}
	switch typ.Kind() {
	case reflect.Bool:
		if len(r.b) == 0 || (r.b[0] != tagFalse && r.b[0] != tagTrue) {
			return fmt.Errorf("%s: not a bool", typ)
		}
		r.b = r.b[1:]
		return nil
	case reflect.Int, reflect.Int64:
		if err := r.tag(tagInt, typ); err != nil {
			return err
		}
		_, err := r.uvarint()
		return err
	case reflect.Uint8, reflect.Uint64:
		if err := r.tag(tagUint, typ); err != nil {
			return err
		}
		_, err := r.uvarint()
		return err
	case reflect.Float64:
		if err := r.tag(tagF64, typ); err != nil {
			return err
		}
		return r.skip(8)
	case reflect.String:
		return r.packed(tagString, typ, 1)
	case reflect.Slice, reflect.Array:
		switch typ.Elem().Kind() {
		case reflect.Uint8:
			return r.packed(tagBytes, typ, 1)
		case reflect.Float64:
			return r.packed(tagF64s, typ, 8)
		case reflect.Float32:
			return r.packed(tagF32s, typ, 4)
		case reflect.Bool:
			return r.packed(tagBools, typ, 0)
		case reflect.Int:
			return r.packed(tagInts, typ, -1)
		}
		if err := r.tag(tagList, typ); err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if typ.Kind() == reflect.Array && n != typ.Len() {
			return fmt.Errorf("%s: %d elements in the frame", typ, n)
		}
		for ; n > 0; n-- {
			if err := r.value(typ.Elem()); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		if err := r.tag(tagStruct, typ); err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		var fields []reflect.StructField
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).IsExported() {
				fields = append(fields, typ.Field(i))
			}
		}
		if n != len(fields) {
			return fmt.Errorf("%s frame counts %d fields, the type exports %d", typ, n, len(fields))
		}
		for _, sf := range fields {
			if err := r.value(sf.Type); err != nil {
				return fmt.Errorf("%s.%s: %w", typ, sf.Name, err)
			}
		}
		return nil
	}
	return fmt.Errorf("%s: no wire form", typ)
}
