package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"acme/internal/transport"
	"acme/internal/wire"
)

// TestDownlinkDeltaMultiRoundChurn is the downlink property test: a
// fleet of per-device edge-side encoders and device-side decoders runs
// ≥4 rounds of slowly drifting personalized sets with device churn (a
// device drops and rejoins, resetting both ends of its shadow pair),
// and every device must reconstruct exactly the layers the dense
// packed path would produce, every round.
func TestDownlinkDeltaMultiRoundChurn(t *testing.T) {
	const (
		devices = 4
		rounds  = 6
	)
	for _, mode := range []QuantMode{QuantLossless, QuantFloat16, QuantInt8, QuantMixed} {
		rng := rand.New(rand.NewSource(31))
		layers := make([][][]float64, devices)
		encs := make([]*deltaEncoder, devices)
		decs := make([]*deltaDecoder, devices)
		for d := range layers {
			layers[d] = randomLayers(rng, []int{150, 41})
			encs[d] = &deltaEncoder{mode: mode}
			decs[d] = &deltaDecoder{}
		}
		sparseSeen := false
		for round := 0; round < rounds; round++ {
			// Churn: one device per middle round loses its session; both
			// the edge encoder and the device decoder restart cold, so
			// the next downlink must ride the dense fallback.
			if round >= 2 && round < 2+devices/2 {
				d := round - 2
				encs[d] = &deltaEncoder{mode: mode}
				decs[d] = &deltaDecoder{}
			}
			for d := 0; d < devices; d++ {
				pls, err := encs[d].encodeLayers(layers[d])
				if err != nil {
					t.Fatal(err)
				}
				dd := DownlinkDelta{Round: round, Discard: 4 * (round + 1), Done: round == rounds-1, Layers: pls}
				got, err := decs[d].apply(dd.Layers, false, nil)
				if err != nil {
					t.Fatalf("mode %v round %d device %d: %v", mode, round, d, err)
				}
				packed, err := packLayers(nil, layers[d], mode)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range packed {
					want, err := unpackLayerInto(nil, p)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got[i], want) {
						t.Fatalf("mode %v round %d device %d layer %d: reconstruction differs",
							mode, round, d, i)
					}
				}
				for _, pl := range dd.Layers {
					if !pl.Delta.Dense {
						sparseSeen = true
					}
				}
				layers[d] = perturb(rng, layers[d], 0.05, 0.01)
			}
		}
		if mode == QuantMixed && !sparseSeen {
			t.Fatal("mixed-mode downlink exchange never produced a sparse delta")
		}
	}
}

// downlinkSystem builds a system (never run) so the device-side decode
// path can be exercised with crafted messages.
func downlinkSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func encodePayload(t *testing.T, v any) []byte {
	t.Helper()
	payload, err := wire.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestDeviceRejectsForeignDownlink: a personalized set from any sender
// other than the device's own edge is a protocol violation naming the
// sender and kind.
func TestDeviceRejectsForeignDownlink(t *testing.T) {
	sys := downlinkSystem(t)
	var dec deltaDecoder
	msg := transport.Message{
		Kind:    transport.KindPersonalizedSet,
		From:    "intruder",
		Payload: encodePayload(t, PersonalizedSet{Layers: [][]float32{{1}}}),
	}
	_, _, _, err := sys.decodePersonalized(&dec, msg, "edge-0", 0, nil, nil)
	if err == nil {
		t.Fatal("downlink from a foreign sender accepted")
	}
	if !strings.Contains(err.Error(), "intruder") || !strings.Contains(err.Error(), "personalized-set") {
		t.Fatalf("error does not name sender and kind: %v", err)
	}
}

// TestDeviceRejectsOutOfOrderDownlinkDelta: a delta downlink whose
// round does not match the device's current round — a duplicate of the
// previous round or a reordered future one — must fail loudly instead
// of being applied to the shadow.
func TestDeviceRejectsOutOfOrderDownlinkDelta(t *testing.T) {
	sys := downlinkSystem(t)
	rng := rand.New(rand.NewSource(37))
	layers := randomLayers(rng, []int{30})
	enc := &deltaEncoder{mode: QuantLossless}
	var dec deltaDecoder

	pls, err := enc.encodeLayers(layers)
	if err != nil {
		t.Fatal(err)
	}
	good := transport.Message{
		Kind:    transport.KindImportanceDownDelta,
		From:    "edge-0",
		Payload: encodePayload(t, DownlinkDelta{Round: 0, Discard: 4, Layers: pls}),
	}
	if _, _, _, err := sys.decodePersonalized(&dec, good, "edge-0", 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Replaying round 0 during round 1 is a duplicate.
	if _, _, _, err := sys.decodePersonalized(&dec, good, "edge-0", 1, nil, nil); err == nil {
		t.Fatal("duplicate downlink round accepted")
	} else if !strings.Contains(err.Error(), "round 0 during round 1") ||
		!strings.Contains(err.Error(), "importance-down-delta") {
		t.Fatalf("error does not name the round skew and kind: %v", err)
	}
	// A future round is just as out-of-order.
	future := transport.Message{
		Kind:    transport.KindImportanceDownDelta,
		From:    "edge-0",
		Payload: encodePayload(t, DownlinkDelta{Round: 3, Layers: pls}),
	}
	if _, _, _, err := sys.decodePersonalized(&dec, future, "edge-0", 1, nil, nil); err == nil {
		t.Fatal("future downlink round accepted")
	}
}

// TestDeviceDenseDownlinkResetsShadow: after a dense downlink the delta
// shadow is gone, so a following sparse delta must be rejected rather
// than reconstructed against the stale round.
func TestDeviceDenseDownlinkResetsShadow(t *testing.T) {
	sys := downlinkSystem(t)
	rng := rand.New(rand.NewSource(41))
	layers := randomLayers(rng, []int{80})
	enc := &deltaEncoder{mode: QuantInt8}
	var dec deltaDecoder

	pls0, err := enc.encodeLayers(layers)
	if err != nil {
		t.Fatal(err)
	}
	r0 := transport.Message{Kind: transport.KindImportanceDownDelta, From: "edge-0",
		Payload: encodePayload(t, DownlinkDelta{Round: 0, Layers: pls0})}
	if _, _, _, err := sys.decodePersonalized(&dec, r0, "edge-0", 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Dense interlude drops the shadow.
	dense := transport.Message{Kind: transport.KindPersonalizedSet, From: "edge-0",
		Payload: encodePayload(t, PersonalizedSet{Layers: quantizeSetInto(nil, layers)})}
	if _, _, _, err := sys.decodePersonalized(&dec, dense, "edge-0", 1, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The edge, unaware, keeps delta-encoding; the next sparse delta
	// must fail against the dropped shadow.
	pls2, err := enc.encodeLayers(perturb(rng, layers, 0.02, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	sparse := false
	for _, pl := range pls2 {
		if !pl.Delta.Dense {
			sparse = true
		}
	}
	if !sparse {
		t.Skip("seed produced all-dense layers; stale-shadow case needs a sparse one")
	}
	r2 := transport.Message{Kind: transport.KindImportanceDownDelta, From: "edge-0",
		Payload: encodePayload(t, DownlinkDelta{Round: 2, Layers: pls2})}
	if _, _, _, err := sys.decodePersonalized(&dec, r2, "edge-0", 2, nil, nil); err == nil {
		t.Fatal("sparse downlink delta against a dropped shadow accepted")
	}
}
