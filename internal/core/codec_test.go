package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
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

// TestBlobErrorsNameIndexAndShape: a blob carries no name, so a blob
// that does not fit its parameter is named by its index and shape.
func TestBlobErrorsNameIndexAndShape(t *testing.T) {
	bb := codecBackbone(t, rand.New(rand.NewSource(3)))
	asg := EncodeBackbone(bb, 1, 3, pareto.Candidate{}, QuantLossless)
	blob := &asg.Params[2]
	n := len(blob.Data)
	blob.Data = blob.Data[:n-1]
	want := fmt.Sprintf("core: blob 2 (%dx%d): %d values for a %d-value param", blob.Rows, blob.Cols, n-1, n)
	if _, err := DecodeBackbone(asg); err == nil || err.Error() != want {
		t.Fatalf("mismatched blob: err %v, want %q", err, want)
	}
	want = fmt.Sprintf("core: %dx%d blob: %d values into %d slots", blob.Rows, blob.Cols, n-1, n)
	if err := blob.Values(make([]float64, n)); err == nil || err.Error() != want {
		t.Fatalf("short blob: err %v, want %q", err, want)
	}
}

// TestFramesCarryNoParamNames: the backbone and header frames carry
// parameter values, never their names (receivers match blobs by
// position), lossless or in the mixed lanes, plain or entropy-coded.
func TestFramesCarryNoParamNames(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bb := codecBackbone(t, rng)
	arch := nas.Architecture{Blocks: []nas.BlockGene{
		{In1: 0, In2: 1, Op1: nas.OpConv3, Op2: nas.OpMHSA},
		{In1: 2, In2: 0, Op1: nas.OpMLPBlock, Op2: nas.OpLayerNorm},
		{In1: 3, In2: 1, Op1: nas.OpConv1, Op2: nas.OpIdentity},
	}}
	h, err := nas.NewHeaderModel(nas.HeaderConfig{Blocks: 3, Repeats: 1, DModel: 8, Hidden: 10, NumClasses: 5}, arch, bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	var names [][]byte
	for _, p := range append(bb.Params(), h.Params()...) {
		names = append(names, []byte(p.Name))
	}
	for _, mode := range []QuantMode{QuantLossless, QuantMixed} {
		asg := EncodeBackbone(bb, 1, 3, pareto.Candidate{}, mode)
		pkg := EncodeHeader(h, mode)
		pkg.Backbone = asg
		for kind, v := range map[string]any{"backbone": asg, "header": pkg} {
			plain, err := wire.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			expanded, wasEntropy, err := wire.EntropyExpand(wire.EntropyCompress(plain))
			if err != nil || !wasEntropy {
				t.Fatalf("%v %s: entropy frame does not expand: %v", mode, kind, err)
			}
			for _, frame := range [][]byte{plain, expanded} {
				for _, name := range names {
					if bytes.Contains(frame, name) {
						t.Fatalf("%v %s frame carries the name %q", mode, kind, name)
					}
				}
			}
		}
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
