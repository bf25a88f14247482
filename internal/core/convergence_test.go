package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"acme/internal/aggregate"
	"acme/internal/importance"
	"acme/internal/transport"
)

func TestSparsifyDensifyRoundTrip(t *testing.T) {
	layers := [][]float64{
		{5, 1, 4, 0.5, 3},
		{0.1, 0.9},
	}
	sparse := sparsifySet(layers, 0.4) // keep top 2 of 5, top 1 of 2
	dense, err := densifySet(sparse, 0.4)
	if err != nil {
		t.Fatalf("an honest sparse set was refused: %v", err)
	}
	// Top entries preserved at wire precision, dropped entries zero.
	want := [][]float64{{5, 0, 4, 0, 0}, {0, float64(float32(0.9))}}
	if !reflect.DeepEqual(dense, want) {
		t.Fatalf("round trip: got %v, want %v", dense, want)
	}
}

// hostileSparseLayers are frames no sparsifySet produces; densifying
// them unchecked panics (negative size, ragged or negative indices) or
// allocates 16 GiB (a size the payload does not back).
var hostileSparseLayers = map[string]SparseLayer{
	"negative size":  {Size: -1},
	"ragged entries": {Size: 5, Indices: []int32{0, 1}, Values: []float32{1}},
	"negative index": {Size: 5, Indices: []int32{0, -1}, Values: []float32{1, 2}},
	"index past end": {Size: 5, Indices: []int32{0, 5}, Values: []float32{1, 2}},
	"unbacked size":  {Size: 1<<31 - 1, Indices: []int32{0}, Values: []float32{1}},
}

func TestDensifyRefusesHostileLayers(t *testing.T) {
	for name, sl := range hostileSparseLayers {
		if _, err := densifySet([]SparseLayer{sl}, 0.4); err == nil {
			t.Errorf("%s: densified without error", name)
		}
	}
}

// TestEdgeRefusesHostileSparseUpload: one device's top-k frame must not
// take the edge down. With top-k off any sparse payload is refused;
// with it on, one that is not what sparsifySet sends is — as an error
// naming sender and kind, before anything is allocated or folded.
func TestEdgeRefusesHostileSparseUpload(t *testing.T) {
	fold := func(topK float64, sl SparseLayer) error {
		cfg := tinyConfig()
		cfg.Wire.TopKFraction = topK
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := sys.newEdgeState(0, transport.NewSession(edgeName(0), sys.Net), HeaderPackage{}, nil)
		r := &edgeRound{edgeState: st, folded: make([]bool, len(st.order))}
		payload, err := transport.Binary.Encode(ImportanceUpload{DeviceID: st.idByPos[0], Sparse: []SparseLayer{sl}})
		if err != nil {
			t.Fatal(err)
		}
		return r.fold(transport.Message{Kind: transport.KindImportanceSet, From: st.nameByPos[0], Payload: payload})
	}
	named := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), transport.KindImportanceSet.String()) &&
			strings.Contains(err.Error(), "device-")
	}
	honest := sparsifySet([][]float64{{5, 1, 4, 0.5, 3}}, 0.4)[0]
	if err := fold(0, honest); !named(err) || !strings.Contains(err.Error(), "top-k sparsification is off") {
		t.Fatalf("sparse upload with top-k off: %v", err)
	}
	for name, sl := range hostileSparseLayers {
		if err := fold(0.4, sl); !named(err) {
			t.Errorf("%s with top-k on: %v", name, err)
		}
	}
}

func TestSparsifyKeepsAtLeastOne(t *testing.T) {
	sparse := sparsifySet([][]float64{{1, 2, 3}}, 0.0001)
	if len(sparse[0].Indices) != 1 {
		t.Fatalf("kept %d entries", len(sparse[0].Indices))
	}
	if sparse[0].Indices[0] != 2 {
		t.Fatalf("kept wrong entry %d", sparse[0].Indices[0])
	}
}

func TestSetsDelta(t *testing.T) {
	a := []*importance.Set{{Layers: [][]float64{{1, 2}}}}
	b := []*importance.Set{{Layers: [][]float64{{1, 2}}}}
	if d := aggregate.SetsDelta(a, b); d != 0 {
		t.Fatalf("identical sets delta %v", d)
	}
	c := []*importance.Set{{Layers: [][]float64{{2, 4}}}}
	if d := aggregate.SetsDelta(a, c); math.Abs(d-1) > 1e-9 {
		t.Fatalf("doubled sets delta %v want 1", d)
	}
	zero := []*importance.Set{{Layers: [][]float64{{0, 0}}}}
	if d := aggregate.SetsDelta(zero, a); !math.IsInf(d, 1) {
		t.Fatalf("zero-denominator delta %v", d)
	}
}

// TestTopKSparsificationReducesUplink verifies the bandwidth knob: the
// pipeline completes with sparsified uploads, moves fewer importance
// bytes, and loses almost nothing in final accuracy.
func TestTopKSparsificationReducesUplink(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	run := func(topk float64) *Result {
		cfg := tinyConfig()
		cfg.Wire.TopKFraction = topk
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dense := run(0)
	sparse := run(0.25)

	dk := dense.Stats.BytesByKind()[transport.KindImportanceSet]
	sk := sparse.Stats.BytesByKind()[transport.KindImportanceSet]
	if sk >= dk {
		t.Fatalf("sparsification did not reduce importance bytes: %d vs %d", sk, dk)
	}
	if sk > dk/2 {
		t.Fatalf("top-25%% upload too large: %d vs dense %d", sk, dk)
	}
	if len(sparse.Reports) != len(dense.Reports) {
		t.Fatal("sparse run lost reports")
	}
	// Accuracy must stay in the same ballpark (identical data/seeds; the
	// only change is dropping near-zero importance entries).
	if diff := math.Abs(sparse.MeanAccuracyFinal() - dense.MeanAccuracyFinal()); diff > 0.25 {
		t.Fatalf("sparsification changed accuracy too much: %.3f vs %.3f",
			sparse.MeanAccuracyFinal(), dense.MeanAccuracyFinal())
	}
}

// TestConvergenceStopsLoopEarly runs with a huge epsilon so the loop
// must stop right after the second round's delta check, even with a
// large round budget.
func TestConvergenceStopsLoopEarly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	cfg := tinyConfig()
	cfg.Phase2Rounds = 6
	cfg.ConvergenceEpsilon = 1e9 // converges at the first comparison
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 has no previous set; the check fires after round 1, so
	// exactly 2 importance uploads per device.
	wantMsgs := int64(2 * len(res.Reports))
	gotMsgs := res.Stats.MessagesByKind()[transport.KindImportanceSet]
	if gotMsgs != wantMsgs {
		t.Fatalf("importance messages %d, want %d (early convergence)", gotMsgs, wantMsgs)
	}
}
