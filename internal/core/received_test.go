package core

import (
	"math"
	"math/rand"
	"testing"

	"acme/internal/data"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/transport"
	"acme/internal/wire"
)

// requireSameParams: same names, shapes and value bits, in order.
func requireSameParams(t *testing.T, want, got []*nn.Param) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d params, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || g.Value.Rows != w.Value.Rows || g.Value.Cols != w.Value.Cols {
			t.Fatalf("param %d is %s %dx%d, want %s %dx%d", i, g.Name, g.Value.Rows, g.Value.Cols, w.Name, w.Value.Rows, w.Value.Cols)
		}
		for k, v := range w.Value.Data {
			if math.Float64bits(g.Value.Data[k]) != math.Float64bits(v) {
				t.Fatalf("param %s entry %d: %v, want %v", w.Name, k, g.Value.Data[k], v)
			}
		}
	}
}

func requireSameBackboneMasks(t *testing.T, want, got *nn.Backbone) {
	t.Helper()
	if got.ActiveDepth != want.ActiveDepth {
		t.Fatalf("depth %d, want %d", got.ActiveDepth, want.ActiveDepth)
	}
	for l, blk := range want.Blocks {
		for i, on := range blk.Attn.HeadMask {
			if got.Blocks[l].Attn.HeadMask[i] != on {
				t.Fatalf("block %d head mask %d differs", l, i)
			}
		}
		for i, on := range blk.FFN.NeuronMask {
			if got.Blocks[l].FFN.NeuronMask[i] != on {
				t.Fatalf("block %d neuron mask %d differs", l, i)
			}
		}
	}
}

// receivedFixture is a scaled backbone with a pruned header over it,
// packaged as an edge would send it.
func receivedFixture(t *testing.T) (*nn.Backbone, *nas.HeaderModel, HeaderPackage) {
	t.Helper()
	return receivedFixtureQuant(t, QuantLossless)
}

func receivedFixtureQuant(t *testing.T, mode QuantMode) (*nn.Backbone, *nas.HeaderModel, HeaderPackage) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	bb := codecBackbone(t, rng)
	bb.Blocks[0].Attn.HeadImportance[1] = 1
	bb.Blocks[1].FFN.NeuronImportance[3] = 1
	if err := bb.ScaleWidth(0.5); err != nil {
		t.Fatal(err)
	}
	if err := bb.SetDepth(2); err != nil {
		t.Fatal(err)
	}
	cfg := nas.HeaderConfig{Blocks: 3, Repeats: 2, DModel: 8, Hidden: 10, NumClasses: 5, TrainBackbone: true}
	arch := nas.Architecture{Blocks: []nas.BlockGene{
		{In1: 0, In2: 1, Op1: nas.OpConv3, Op2: nas.OpAvgPool},
		{In1: 2, In2: 0, Op1: nas.OpMaxPool, Op2: nas.OpConv1},
		{In1: 3, In2: 2, Op1: nas.OpConv5, Op2: nas.OpDownsample},
	}}
	h, err := nas.NewHeaderModel(cfg, arch, bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	h.HiddenMask[4] = false
	pkg := EncodeHeader(h, mode)
	pkg.Backbone = EncodeBackbone(bb, 0.5, 2, pareto.Candidate{W: 0.5, D: 2}, mode)
	return bb, h, pkg
}

// TestDecodeIsBitExact: a decoded model is built without an rng and
// still carries the sender's parameters, names and masks bit for bit.
func TestDecodeIsBitExact(t *testing.T) {
	bb, h, pkg := receivedFixture(t)
	gotBB, err := DecodeBackbone(pkg.Backbone)
	if err != nil {
		t.Fatal(err)
	}
	requireSameParams(t, bb.Params(), gotBB.Params())
	requireSameBackboneMasks(t, bb, gotBB)
	gotH, err := DecodeHeader(pkg, gotBB)
	if err != nil {
		t.Fatal(err)
	}
	requireSameParams(t, h.Params(), gotH.Params())
	want, got := h.ExportMasks(), gotH.ExportMasks()
	for i := range want.Hidden {
		if want.Hidden[i] != got.Hidden[i] {
			t.Fatalf("hidden mask %d differs", i)
		}
	}
	if gotH.ActiveParamCount() != h.ActiveParamCount() || gotBB.ActiveParamCount() != bb.ActiveParamCount() {
		t.Fatal("decoded model differs in active size")
	}
}

// decodedDeviceModel is the model a device that decodes its backbone
// builds from pkg.
func decodedDeviceModel(pkg HeaderPackage) (*nas.HeaderModel, error) {
	bb, err := DecodeBackbone(pkg.Backbone)
	if err != nil {
		return nil, err
	}
	return buildDeviceHeader(pkg, bb)
}

// TestDeviceBackboneHoldsNoGradients: a device's backbone is frozen for
// good, so through set-up, local training and evaluation it never
// acquires gradient storage — and everything a device still does
// with it (count, package, checkpoint) works without. The header's
// gradients are borrowed by the calls that train it, so between calls
// it holds none either.
func TestDeviceBackboneHoldsNoGradients(t *testing.T) {
	bb, _, pkg := receivedFixture(t)
	model, err := decodedDeviceModel(pkg)
	if err != nil {
		t.Fatal(err)
	}
	noGrads := func(when string) {
		t.Helper()
		for _, p := range model.Backbone.Params() {
			if p.Grad != nil {
				t.Fatalf("%s: device backbone param %s holds gradient storage", when, p.Name)
			}
		}
	}
	noGrads("after set-up")

	rng := rand.New(rand.NewSource(42))
	local := &data.Dataset{Name: "local", NumClasses: 5, Dim: 16, X: make([][]float64, 24), Y: make([]int, 24)}
	for i := range local.X {
		local.X[i] = make([]float64, 16)
		for j := range local.X[i] {
			local.X[i][j] = rng.NormFloat64()
		}
		local.Y[i] = rng.Intn(5)
	}
	frozen, err := model.Frozen(model.Backbone.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := model.Featurize(local)
	if err != nil {
		t.Fatal(err)
	}
	if err := frozen.TrainLocal(feats, 2, 8, 1e-2, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := nn.Evaluate(frozen, feats.X, feats.Y); err != nil {
		t.Fatal(err)
	}
	noGrads("after local training")
	for _, p := range model.Params() {
		if p.Grad != nil {
			t.Fatalf("trained header param %s kept its gradient storage", p.Name)
		}
	}

	if model.Backbone.ActiveParamCount() != bb.ActiveParamCount() {
		t.Fatal("frozen backbone miscounts its active parameters")
	}
	requireSameParams(t, bb.Params(), model.Backbone.Params())
	dir := t.TempDir()
	s := &System{}
	if err := s.writeDeviceSnapshot(deviceModelFile(dir, 7), 7, 0, model, pkg); err != nil {
		t.Fatal(err)
	}
	loadedBB, loadedH, err := LoadDeviceCheckpoint(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	requireSameParams(t, model.Backbone.Params(), loadedBB.Params())
	requireSameBackboneMasks(t, model.Backbone, loadedBB)
	requireSameParams(t, model.Params(), loadedH.Params())
	noGrads("after checkpointing")
}

// overwrite models what the read pool does to a released frame once
// the next one lands in it.
func overwrite(frame []byte) {
	for i := range frame {
		frame[i] = 0xa5
	}
}

// TestReceivedModelOutlivesItsFrame: a quantized parameter blob is
// decoded zero-copy out of the frame, and Session.Receive releases the
// frame when the handler returns, so the handler body every device's
// model receive shares must have built the model — and dropped the
// blobs — by the time it returns. The frame is overwritten the moment
// it does; the model must equal one built from an untouched copy of the
// same bytes. A holder of a shared shard instead keeps its frame: its
// backbone's encoding aliases it, and must stay intact past the
// handler's release until the holder drops it, and no longer. (The
// waits themselves, and the edge's, run against frames destroyed on
// release in transport's TestRolesSurviveReleasedFrames.)
func TestReceivedModelOutlivesItsFrame(t *testing.T) {
	s := &System{}
	wire.SetScrub(overwrite)
	defer wire.SetScrub(nil)
	for _, mode := range []QuantMode{QuantInt8, QuantFloat16, QuantMixed} {
		_, _, pkg := receivedFixtureQuant(t, mode)
		sent, err := wire.Encode(pkg)
		if err != nil {
			t.Fatal(err)
		}
		var pristine HeaderPackage
		if err := wire.Decode(append([]byte(nil), sent...), &pristine); err != nil {
			t.Fatal(err)
		}
		want, err := decodedDeviceModel(pristine)
		if err != nil {
			t.Fatal(err)
		}

		// The fixture has teeth: built after its frame is reused, the
		// model is not the one that was sent.
		frame := append([]byte(nil), sent...)
		var dangling HeaderPackage
		if err := wire.Decode(frame, &dangling); err != nil {
			t.Fatal(err)
		}
		overwrite(frame)
		if late, err := decodedDeviceModel(dangling); err == nil && sameParamBits(want.Backbone.Params(), late.Backbone.Params()) {
			t.Fatalf("%v: blobs no longer alias the frame; this test pins nothing", mode)
		}

		frame = append([]byte(nil), sent...)
		model, kept, err := s.modelFromFrame(transport.Message{Payload: frame}, nil)
		if err != nil {
			t.Fatal(err)
		}
		overwrite(frame)
		requireSameParams(t, want.Backbone.Params(), model.Backbone.Params())
		requireSameParams(t, want.Params(), model.Params())
		if kept.Backbone.Params != nil || kept.HeaderParams != nil {
			t.Fatalf("%v: parameter blobs kept past the frame", mode)
		}

		// A holder of a shared shard that does not own it builds the
		// header alone and keeps its frame past the handler's release
		// (wire.SetScrub overwrites a frame at its final release).
		start := wire.Leased()
		buf := wire.Lease()
		buf.B = append(buf.B, sent...)
		msg := transport.Message{Kind: transport.KindHeader}.WithLease(buf)
		hold := holding{e: &rowsEntry{}}
		hold.e.comparing.Store(1)
		model, _, err = s.modelFromFrame(msg, &hold)
		if err != nil {
			t.Fatal(err)
		}
		msg.Release()
		if model.Backbone != nil {
			t.Fatalf("%v: a holder that is not the owner decoded its backbone", mode)
		}
		requireSameParams(t, want.Params(), model.Params())
		if n := wire.Leased() - start; n != 1 {
			t.Fatalf("%v: %d frames leased after the handler's release, want the holder's 1", mode, n)
		}
		if !sameEncoding(hold.enc, pristine.Backbone) {
			t.Fatalf("%v: the holder's encoding did not outlive the handler", mode)
		}
		hold.done()
		if n := wire.Leased() - start; n != 0 {
			t.Fatalf("%v: %d frames leased after the holder was done", mode, n)
		}
		if sameEncoding(hold.enc, pristine.Backbone) {
			t.Fatalf("%v: the holder's encoding does not alias its frame; this test pins nothing", mode)
		}
		if b := kept.Backbone; b.W != 0.5 || b.D != 2 || b.Candidate != pkg.Backbone.Candidate {
			t.Fatalf("%v: shape or candidate lost: %+v", mode, b)
		}
	}
}

func sameParamBits(a, b []*nn.Param) bool {
	for i := range a {
		for k, v := range a[i].Value.Data {
			if math.Float64bits(b[i].Value.Data[k]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}
