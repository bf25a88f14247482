package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"acme/internal/checkpoint"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/wire"
)

func codecBackbone(t *testing.T, rng *rand.Rand) *nn.Backbone {
	t.Helper()
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 12, Depth: 3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return bb
}

func TestBackboneCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bb := codecBackbone(t, rng)
	// Give it non-trivial masks and depth.
	bb.Blocks[0].Attn.HeadImportance[0] = 1
	bb.Blocks[0].FFN.NeuronImportance[3] = 1
	if err := bb.ScaleWidth(0.5); err != nil {
		t.Fatal(err)
	}
	if err := bb.SetDepth(2); err != nil {
		t.Fatal(err)
	}
	asg := EncodeBackbone(bb, 0.5, 2, pareto.Candidate{W: 0.5, D: 2}, QuantLossless)

	// Through the wire.
	raw, err := wire.Encode(asg)
	if err != nil {
		t.Fatal(err)
	}
	var decodedAsg BackboneAssignment
	if err := wire.Decode(raw, &decodedAsg); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBackbone(decodedAsg)
	if err != nil {
		t.Fatal(err)
	}
	if got.ActiveDepth != 2 {
		t.Fatalf("depth %d", got.ActiveDepth)
	}
	// Same forward output on the same input.
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a, err := bb.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > 1e-12 {
			t.Fatal("decoded backbone diverges from original")
		}
	}
}

func TestHeaderCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bb := codecBackbone(t, rng)
	cfg := nas.HeaderConfig{Blocks: 3, Repeats: 1, DModel: 8, Hidden: 10, NumClasses: 5}
	arch := nas.RandomArchitecture(3, rng)
	h, err := nas.NewHeaderModel(cfg, arch, bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	pkg := EncodeHeader(h, QuantLossless)
	pkg.Backbone = EncodeBackbone(bb, 1, 3, pareto.Candidate{}, QuantLossless)

	raw, err := wire.Encode(pkg)
	if err != nil {
		t.Fatal(err)
	}
	var decoded HeaderPackage
	if err := wire.Decode(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	bb2, err := DecodeBackbone(decoded.Backbone)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := DecodeHeader(decoded, bb2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a, err := h.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h2.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("decoded header diverges from original")
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	layers := [][]float64{{1.5, 2.25}, {0.125}}
	q := quantizeSetInto(nil, layers)
	back := dequantizeSetInto(nil, q)
	for i := range layers {
		for j := range layers[i] {
			if back[i][j] != layers[i][j] { // exact for these dyadic values
				t.Fatalf("quantize round trip changed %v → %v", layers[i][j], back[i][j])
			}
		}
	}
}

func TestDecodeBackboneRejectsCorruptMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bb := codecBackbone(t, rng)
	asg := EncodeBackbone(bb, 1, 3, pareto.Candidate{}, QuantLossless)
	asg.HeadMasks = asg.HeadMasks[:1]
	if _, err := DecodeBackbone(asg); err == nil {
		t.Fatal("expected mask-count error")
	}
	asg2 := EncodeBackbone(bb, 1, 3, pareto.Candidate{}, QuantLossless)
	asg2.Params[0].Data = asg2.Params[0].Data[:1]
	if _, err := DecodeBackbone(asg2); err == nil {
		t.Fatal("expected param-size error")
	}
}

// TestLoadDeviceCheckpointRejectsBareGob: saved models are envelope
// files; a bare gob stream from before the envelope existed is refused
// with the envelope's own diagnosis, not decoded on a guess.
func TestLoadDeviceCheckpointRejectsBareGob(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bb := codecBackbone(t, rng)
	cp := DeviceSnapshot{DeviceID: 0, Package: HeaderPackage{
		Backbone: EncodeBackbone(bb, 1, 3, pareto.Candidate{}, QuantLossless),
	}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "device-0.ckpt"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadDeviceCheckpoint(dir, 0); !errors.Is(err, checkpoint.ErrMagic) {
		t.Fatalf("bare-gob device checkpoint: got %v, want an error wrapping %v", err, checkpoint.ErrMagic)
	}
}
