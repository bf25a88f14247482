package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"acme/internal/aggregate"
	"acme/internal/importance"
	"acme/internal/transport"
	"acme/internal/wire"
)

// f16 is v at float16 precision, what a top-k upload carries.
func f16(v float64) float64 { return float16value(float16bits(v)) }

// TestSparsifyDensifyRoundTrip drives the top-k encoder and the edge's
// decoder over a constant set. The cold round sends exactly the top k
// by value — float16 there, zeros elsewhere — and the residual carries:
// after ⌈n/k⌉ rounds both shadows hold float16(I) everywhere.
func TestSparsifyDensifyRoundTrip(t *testing.T) {
	layers := [][]float64{
		{5, 1, 4, 0.5, 3},
		{0.1, 0.9},
	}
	enc := &deltaEncoder{topK: 0.4} // top 2 of 5, top 1 of 2
	var dec deltaDecoder
	want := [][][]float64{
		{{f16(5), 0, f16(4), 0, 0}, {0, f16(0.9)}},
		{{f16(5), f16(1), f16(4), 0, f16(3)}, {f16(0.1), f16(0.9)}},
		{{f16(5), f16(1), f16(4), f16(0.5), f16(3)}, {f16(0.1), f16(0.9)}},
	}
	for round, w := range want {
		pls, err := enc.encodeLayers(layers)
		if err != nil {
			t.Fatal(err)
		}
		for i, pl := range pls {
			if pl.Delta.Dense || pl.Mode != QuantFloat16 {
				t.Fatalf("round %d layer %d: dense %v in lane %v, want a sparse float16 record", round, i, pl.Delta.Dense, pl.Mode)
			}
		}
		got, err := dec.apply(pls, true, nil)
		if err != nil {
			t.Fatalf("round %d: an honest top-k record was refused: %v", round, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("round %d: got %v, want %v", round, got, w)
		}
		for i := range enc.prev {
			if !reflect.DeepEqual(enc.prev[i], dec.prev[i]) {
				t.Fatalf("round %d layer %d: shadows differ at the two ends", round, i)
			}
		}
	}
}

// hostileZeroStart are sparse records with no shadow round that no
// top-k encoder produces: zeros sized by their N unchecked would
// allocate 2 TiB (an N no mask backs), panic (negative N) or apply a
// popcount the payload does not carry.
var hostileZeroStart = map[string]wire.DeltaLayer{
	"unbacked N":        {N: 1 << 40, Elem: 2, Mask: []byte{1}, Changed: []byte{1, 2}},
	"negative N":        {N: -1, Elem: 2},
	"mask/Changed skew": {N: 5, Elem: 2, Mask: []byte{0b11}, Changed: []byte{1, 2}},
	"spare mask bits":   {N: 3, Elem: 2, Mask: []byte{0xf1}, Changed: make([]byte, 10)},
	"wrong width":       {N: 5, Elem: 4, Mask: []byte{1}, Changed: []byte{1, 2, 3, 4}},
}

func TestDensifyRefusesHostileLayers(t *testing.T) {
	for name, dl := range hostileZeroStart {
		var dec deltaDecoder
		if _, err := dec.apply([]DeltaLayerPayload{{Mode: QuantFloat16, Delta: dl}}, true, nil); err == nil {
			t.Errorf("%s: applied without error", name)
		}
	}
}

// TestEdgeRefusesHostileSparseUpload: one device's top-k frame must not
// take the edge down. With top-k on, a zero-start record that is not
// what the encoder sends is refused — as an error naming sender and
// kind, before its zeros are allocated or anything is folded. With
// top-k off, an honest one is still a sparse delta with no shadow round.
func TestEdgeRefusesHostileSparseUpload(t *testing.T) {
	fold := func(topK float64, dl wire.DeltaLayer) error {
		cfg := tinyConfig()
		cfg.Wire.TopKFraction = topK
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := sys.newEdgeState(0, transport.NewSession(edgeName(0), sys.Net), HeaderPackage{}, nil)
		r := &edgeRound{edgeState: st, folded: make([]bool, len(st.order))}
		up := DeltaUpload{DeviceID: st.idByPos[0], Layers: []DeltaLayerPayload{{Mode: QuantFloat16, Delta: dl}}}
		payload, err := wire.Encode(up)
		if err != nil {
			t.Fatal(err)
		}
		return r.fold(transport.Message{Kind: transport.KindImportanceDelta, From: st.nameByPos[0], Payload: payload})
	}
	named := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), transport.KindImportanceDelta.String()) &&
			strings.Contains(err.Error(), "device-")
	}
	honest := (&deltaEncoder{topK: 0.4}).encodeTopK([][]float64{{5, 1, 4, 0.5, 3}})[0].Delta
	if err := fold(0, honest); !named(err) || !strings.Contains(err.Error(), "no shadow round") {
		t.Fatalf("zero-start record with top-k off: %v", err)
	}
	for name, dl := range hostileZeroStart {
		if err := fold(0.4, dl); !named(err) {
			t.Errorf("%s with top-k on: %v", name, err)
		}
	}
}

func TestSparsifyKeepsAtLeastOne(t *testing.T) {
	pls := (&deltaEncoder{topK: 0.0001}).encodeTopK([][]float64{{1, 2, 3}})
	var dec deltaDecoder
	got, err := dec.apply(pls, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{{0, 0, 3}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
}

// topKTap is a transport that checks every top-k upload on its way: a
// sparse float16 record per layer, changing at most topKCount entries.
type topKTap struct {
	transport.Transport
	fraction float64

	mu      sync.Mutex
	uploads int
	bad     []string
}

func (n *topKTap) Send(msg transport.Message) error {
	if msg.Kind == transport.KindImportanceDelta {
		var up DeltaUpload
		if err := wire.Decode(msg.Payload, &up); err != nil {
			return fmt.Errorf("tap: %w", err)
		}
		n.mu.Lock()
		n.uploads++
		for i, pl := range up.Layers {
			changed := 0
			for _, b := range pl.Delta.Mask {
				changed += bits.OnesCount8(b)
			}
			if pl.Delta.Dense || pl.Mode != QuantFloat16 || changed > topKCount(pl.Delta.N, n.fraction) {
				n.bad = append(n.bad, fmt.Sprintf("%s round %d layer %d: dense %v, lane %v, %d of %d changed",
					msg.From, up.Round, i, pl.Delta.Dense, pl.Mode, changed, pl.Delta.N))
			}
		}
		n.mu.Unlock()
	}
	return n.Transport.Send(msg)
}

// TestTopKRidesDeltaRecords pins top-k's one wire form: a top-k run
// sends no dense ImportanceUpload or PersonalizedSet, and every upload
// layer is a sparse float16 delta record of at most topKCount entries.
func TestTopKRidesDeltaRecords(t *testing.T) {
	cfg := tinyConfig()
	cfg.Phase2Rounds = 3
	cfg.Wire.TopKFraction = 0.25
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tap := &topKTap{Transport: sys.Net.(transport.Transport), fraction: cfg.Wire.TopKFraction}
	sys.Net = tap
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	msgs := res.Stats.MessagesByKind()
	if n := msgs[transport.KindImportanceSet] + msgs[transport.KindPersonalizedSet]; n != 0 {
		t.Fatalf("%d dense importance/personalized-set messages", n)
	}
	if want := len(res.Reports) * cfg.Phase2Rounds; tap.uploads != want {
		t.Fatalf("%d top-k uploads, want %d", tap.uploads, want)
	}
	if len(tap.bad) > 0 {
		t.Fatalf("%d upload layers off the top-k form, first: %s", len(tap.bad), tap.bad[0])
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
// pipeline completes with sparsified uploads, moves fewer uplink bytes
// (under half the importance share), and loses almost nothing in final
// accuracy.
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

	if sparse.UploadBytes >= dense.UploadBytes {
		t.Fatalf("sparsification did not reduce uplink bytes: %d vs %d", sparse.UploadBytes, dense.UploadBytes)
	}
	// Everything else the devices upload (stats, shards) is identical.
	if saved, dk := dense.UploadBytes-sparse.UploadBytes, dense.Stats.BytesByKind()[transport.KindImportanceSet]; 2*saved < dk {
		t.Fatalf("top-25%% upload too large: saved %d of dense importance %d", saved, dk)
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
