package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"acme/internal/transport"
	"acme/internal/wire"
)

// runCfg runs a full system for an arbitrary config.
func runCfg(t *testing.T, cfg Config) *Result {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// randomLayers builds an importance-set-shaped [][]float64 with a
// heavy-tailed magnitude distribution (squared gaussians, like the
// Taylor importance terms).
func randomLayers(rng *rand.Rand, sizes []int) [][]float64 {
	out := make([][]float64, len(sizes))
	for i, sz := range sizes {
		out[i] = make([]float64, sz)
		for j := range out[i] {
			g := rng.NormFloat64()
			out[i][j] = g * g
		}
	}
	return out
}

// perturb shifts a small random fraction of entries, emulating one
// round of local training between uploads.
func perturb(rng *rand.Rand, layers [][]float64, frac, eps float64) [][]float64 {
	out := make([][]float64, len(layers))
	for i, l := range layers {
		out[i] = append([]float64(nil), l...)
		for j := range out[i] {
			if rng.Float64() < frac {
				out[i][j] *= 1 + eps*rng.NormFloat64()
			}
		}
	}
	return out
}

// TestPackUnpackMatchesDensePath asserts that the delta pipeline's
// packed representation decodes to exactly the float64 layers of the
// dense lossless payload, and of each quantized lane's own
// quantize/dequantize round trip, for every quantization mode.
func TestPackUnpackMatchesDensePath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	layers := randomLayers(rng, []int{64, 7, 129})
	for _, mode := range []QuantMode{QuantLossless, QuantFloat16, QuantInt8, QuantMixed} {
		packed, err := packLayers(nil, layers, mode)
		if err != nil {
			t.Fatal(err)
		}
		want := dequantizeSetInto(nil, quantizeSetInto(nil, layers))
		if mode != QuantLossless {
			// The packed lanes against their oracle: the per-layer
			// lane choice, then each lane's own quantize/dequantize.
			for i, lane := range layerModes(layers, mode) {
				data, scale, err := quantizeLane(nil, layers[i], lane, mode)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = make([]float64, len(layers[i]))
				if err := dequantizeValues(want[i], data, scale, lane); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i, p := range packed {
			got, err := unpackLayerInto(nil, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("mode %v layer %d: packed decode differs from dense path", mode, i)
			}
		}
	}
}

// TestDeltaExchangeMultiRound drives the device encoder and edge
// decoder through several rounds of slowly-drifting importance sets:
// reconstruction must be bitwise identical to the dense path every
// round, and later mixed-mode rounds must actually produce sparse
// layers (the redundancy the delta exists to exploit).
func TestDeltaExchangeMultiRound(t *testing.T) {
	for _, mode := range []QuantMode{QuantLossless, QuantFloat16, QuantInt8, QuantMixed} {
		rng := rand.New(rand.NewSource(22))
		layers := randomLayers(rng, []int{200, 33})
		enc := &deltaEncoder{mode: mode}
		var dec deltaDecoder
		sparseSeen := false
		for round := 0; round < 5; round++ {
			up, err := enc.encode(9, round, layers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.apply(up.Layers, false, nil)
			if err != nil {
				t.Fatalf("mode %v round %d: %v", mode, round, err)
			}
			packed, err := packLayers(nil, layers, mode)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range packed {
				want, err := unpackLayerInto(nil, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("mode %v round %d layer %d: delta reconstruction differs", mode, round, i)
				}
			}
			for _, pl := range up.Layers {
				if !pl.Delta.Dense {
					sparseSeen = true
				}
			}
			layers = perturb(rng, layers, 0.05, 0.01)
		}
		if mode == QuantMixed && !sparseSeen {
			t.Fatal("mixed-mode multi-round exchange never produced a sparse delta")
		}
	}
}

// TestDeltaDecoderRejectsCorrupt covers the edge's validation of
// wire-controlled delta uploads.
func TestDeltaDecoderRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	layers := randomLayers(rng, []int{40})
	enc := &deltaEncoder{mode: QuantInt8}
	up0, err := enc.encode(1, 0, layers)
	if err != nil {
		t.Fatal(err)
	}
	up1, err := enc.encode(1, 1, perturb(rng, layers, 0.02, 0.01))
	if err != nil {
		t.Fatal(err)
	}

	// Sparse round with no shadow.
	var fresh deltaDecoder
	if !up1.Layers[0].Delta.Dense {
		if _, err := fresh.apply(up1.Layers, false, nil); err == nil {
			t.Fatal("sparse delta without shadow accepted")
		}
	}

	var dec deltaDecoder
	if _, err := dec.apply(up0.Layers, false, nil); err != nil {
		t.Fatal(err)
	}
	// Mode flip between rounds on a sparse layer.
	bad := up1
	bad.Layers = append([]DeltaLayerPayload(nil), up1.Layers...)
	if !bad.Layers[0].Delta.Dense {
		bad.Layers[0].Mode = QuantFloat16
		bad.Layers[0].Delta.Elem = 2
		if _, err := dec.apply(bad.Layers, false, nil); err == nil {
			t.Fatal("mode flip on sparse layer accepted")
		}
	}
	// Non-concrete mode.
	bad2 := up1
	bad2.Layers = append([]DeltaLayerPayload(nil), up1.Layers...)
	bad2.Layers[0].Mode = QuantMixed
	if _, err := dec.apply(bad2.Layers, false, nil); err == nil {
		t.Fatal("QuantMixed on the wire accepted")
	}
	// Layer-count change between rounds.
	bad3 := up1
	bad3.Layers = append(append([]DeltaLayerPayload(nil), up1.Layers...), up1.Layers[0])
	if _, err := dec.apply(bad3.Layers, false, nil); err == nil {
		t.Fatal("layer-count change accepted")
	}
}

// TestQuantLayersRejectCorrupt: hostile packed quantized layers. The
// dense delta record is the only wire form of a packed lane, so its
// element count and mode are vetted before anything is sized from them.
func TestQuantLayersRejectCorrupt(t *testing.T) {
	for _, c := range []struct {
		name string
		pl   DeltaLayerPayload
	}{
		{"int8 count lies about its bytes", DeltaLayerPayload{Mode: QuantInt8, Scale: 0.5,
			Delta: wire.DeltaLayer{N: 5, Elem: 1, Dense: true, Changed: []byte{1, 2, 3}}}},
		{"huge count with no bytes", DeltaLayerPayload{Mode: QuantInt8,
			Delta: wire.DeltaLayer{N: 1 << 60, Elem: 1, Dense: true}}},
		{"unknown mode", DeltaLayerPayload{Mode: QuantMode(99),
			Delta: wire.DeltaLayer{N: 3, Elem: 1, Dense: true, Changed: []byte{1, 2, 3}}}},
	} {
		var dec deltaDecoder
		if _, err := dec.apply([]DeltaLayerPayload{c.pl}, false, nil); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

// TestEdgeRejectsStaleDeltaAfterDenseUpload: a device that switches
// from delta uploads to a dense upload and back must not have its
// sparse delta applied against the stale shadow — the edge drops the
// shadow on a dense upload, so the later sparse round fails loudly.
// This exercises the edge path indirectly through the decoder the
// edge resets.
func TestEdgeRejectsStaleDeltaAfterDenseUpload(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	layers := randomLayers(rng, []int{60})
	enc := &deltaEncoder{mode: QuantMixed}
	var dec deltaDecoder
	for round := 0; round < 2; round++ {
		up, err := enc.encode(1, round, layers)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.apply(up.Layers, false, nil); err != nil {
			t.Fatal(err)
		}
		layers = perturb(rng, layers, 0.02, 0.01)
	}
	// Dense interlude: the edge resets the shadow.
	dec = deltaDecoder{}
	// The device, unaware, keeps sending deltas; the next sparse one
	// must be rejected instead of reconstructing against nothing.
	layers = perturb(rng, layers, 0.02, 0.01)
	up, err := enc.encode(1, 3, layers)
	if err != nil {
		t.Fatal(err)
	}
	sparse := false
	for _, pl := range up.Layers {
		if !pl.Delta.Dense {
			sparse = true
		}
	}
	if !sparse {
		t.Skip("seed produced all-dense layers; stale-shadow case needs a sparse one")
	}
	if _, err := dec.apply(up.Layers, false, nil); err == nil {
		t.Fatal("sparse delta against a dropped shadow accepted")
	}
}

// TestDeltaSystemBitwiseEquivalence is the acceptance property: a
// seeded run produces bitwise-identical Reports and Assignments with
// delta encoding on or off, in lossless and mixed modes, while
// delta+mixed cuts the importance uplink ≥3× below the dense lossless
// path.
func TestDeltaSystemBitwiseEquivalence(t *testing.T) {
	base := tinyConfig()
	base.Phase2Rounds = 3 // give the delta rounds t≥1 something to do

	variant := func(quant QuantMode, delta bool) Config {
		cfg := base
		cfg.Wire.Quantization = quant
		cfg.Wire.DeltaImportance = delta
		return cfg
	}
	importanceBytes := func(r *Result) int64 {
		byKind := r.Stats.BytesByKind()
		return byKind[transport.KindImportanceSet] + byKind[transport.KindImportanceDelta]
	}
	downlinkBytes := func(r *Result) int64 {
		byKind := r.Stats.BytesByKind()
		return byKind[transport.KindPersonalizedSet] + byKind[transport.KindImportanceDownDelta]
	}

	denseLossless := runCfg(t, variant(QuantLossless, false))
	deltaLossless := runCfg(t, variant(QuantLossless, true))
	denseMixed := runCfg(t, variant(QuantMixed, false))
	deltaMixed := runCfg(t, variant(QuantMixed, true))

	for _, pair := range []struct {
		name         string
		dense, delta *Result
	}{
		{"lossless", denseLossless, deltaLossless},
		{"mixed", denseMixed, deltaMixed},
	} {
		sortReportsByID(pair.dense.Reports)
		sortReportsByID(pair.delta.Reports)
		if !reflect.DeepEqual(pair.dense.Reports, pair.delta.Reports) {
			t.Fatalf("%s: delta-on Reports diverge from delta-off", pair.name)
		}
		if !reflect.DeepEqual(pair.dense.Assignments, pair.delta.Assignments) {
			t.Fatalf("%s: delta-on Assignments diverge from delta-off", pair.name)
		}
	}
	// Raw float32 payloads barely repeat bitwise between rounds, so
	// lossless deltas mostly ride the dense fallback — the record
	// overhead must stay small. Quantized sets ride the delta records
	// whatever DeltaImportance says, so the mixed pair sends the same
	// bytes.
	if got, lim := importanceBytes(deltaLossless), importanceBytes(denseLossless)*21/20; got > lim {
		t.Fatalf("lossless delta overhead too high: %d vs dense %d", got, importanceBytes(denseLossless))
	}
	if importanceBytes(deltaMixed) != importanceBytes(denseMixed) || downlinkBytes(deltaMixed) != downlinkBytes(denseMixed) {
		t.Fatalf("mixed importance bytes differ with delta on/off: up %d vs %d, down %d vs %d",
			importanceBytes(deltaMixed), importanceBytes(denseMixed), downlinkBytes(deltaMixed), downlinkBytes(denseMixed))
	}

	// Delta uploads and downlinks travel under their own kinds; the
	// symmetric exchange sends no dense message in either direction.
	msgs := deltaMixed.Stats.MessagesByKind()
	if msgs[transport.KindImportanceDelta] == 0 {
		t.Fatal("delta run sent no KindImportanceDelta messages")
	}
	if n := msgs[transport.KindImportanceSet]; n != 0 {
		t.Fatalf("delta run still sent %d dense importance messages", n)
	}
	if msgs[transport.KindImportanceDownDelta] == 0 {
		t.Fatal("delta run sent no KindImportanceDownDelta messages")
	}
	if n := msgs[transport.KindPersonalizedSet]; n != 0 {
		t.Fatalf("delta run still sent %d dense personalized-set messages", n)
	}
	if deltaMixed.DownlinkBytes != downlinkBytes(deltaMixed) {
		t.Fatalf("Result.DownlinkBytes %d disagrees with per-kind counters %d",
			deltaMixed.DownlinkBytes, downlinkBytes(deltaMixed))
	}

	// The headline acceptance: delta+mixed ≥3× below dense lossless on
	// the uplink, ≥2.5× on the symmetric downlink.
	dense, best := importanceBytes(denseLossless), importanceBytes(deltaMixed)
	if 3*best > dense {
		t.Fatalf("delta+mixed importance bytes %d vs dense lossless %d: want ≥3× reduction", best, dense)
	}
	downDense, downBest := downlinkBytes(denseLossless), downlinkBytes(deltaMixed)
	if 5*downBest > 2*downDense {
		t.Fatalf("delta+mixed downlink bytes %d vs dense lossless %d: want ≥2.5× reduction", downBest, downDense)
	}
	// The lossless downlink delta must not blow past the dense payload
	// (record overhead stays within the same 5% envelope as the uplink).
	if got, lim := downlinkBytes(deltaLossless), downDense*21/20; got > lim {
		t.Fatalf("lossless downlink delta overhead too high: %d vs dense %d", got, downDense)
	}
	// Mixed quantization perturbs importance ranking only mildly.
	if deltaMixed.MeanAccuracyFinal() < denseLossless.MeanAccuracyFinal()-0.15 {
		t.Fatalf("mixed accuracy %.3f collapsed vs lossless %.3f",
			deltaMixed.MeanAccuracyFinal(), denseLossless.MeanAccuracyFinal())
	}
}

// TestQuantizedSetsRideDeltaRecords pins the one wire form of packed
// importance lanes: under every quantized mode, a run sends exactly the
// same frames with DeltaImportance off as with it on — the delta
// records — and no dense ImportanceUpload or PersonalizedSet at all.
func TestQuantizedSetsRideDeltaRecords(t *testing.T) {
	for _, mode := range []QuantMode{QuantFloat16, QuantInt8, QuantMixed} {
		var runs [2]*Result
		for i, delta := range []bool{false, true} {
			cfg := tinyConfig()
			cfg.Phase2Rounds = 3
			cfg.Wire.Quantization = mode
			cfg.Wire.DeltaImportance = delta
			runs[i] = runCfg(t, cfg)
		}
		off, on := runs[0], runs[1]
		if !reflect.DeepEqual(off.Reports, on.Reports) {
			t.Fatalf("%v: Reports differ with DeltaImportance off/on", mode)
		}
		if a, b := off.Stats.BytesByKind(), on.Stats.BytesByKind(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: bytes by kind differ with DeltaImportance off/on:\n%v\n%v", mode, a, b)
		}
		for _, r := range runs {
			msgs := r.Stats.MessagesByKind()
			if n := msgs[transport.KindImportanceSet] + msgs[transport.KindPersonalizedSet]; n != 0 {
				t.Fatalf("%v: %d dense importance/personalized-set messages", mode, n)
			}
		}
	}
}

// TestPhase2RoundTrace asserts the per-round loop statistics are
// recorded for every edge and round with sane values.
func TestPhase2RoundTrace(t *testing.T) {
	cfg := tinyConfig()
	cfg.Phase2Rounds = 2
	cfg.Wire.DeltaImportance = true
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.EdgeServers * cfg.Phase2Rounds
	if len(res.Phase2Rounds) != want {
		t.Fatalf("got %d round stats, want %d", len(res.Phase2Rounds), want)
	}
	for i, rs := range res.Phase2Rounds {
		if rs.UploadBytes <= 0 {
			t.Errorf("round stat %d has no bytes: %+v", i, rs)
		}
		// Fleet partitioning is attribute-driven, so cluster sizes vary;
		// each round must see exactly one delta upload per member.
		if members := len(sys.Clusters()[rs.EdgeID]); rs.DeltaMessages != members || rs.DenseMessages != 0 {
			t.Errorf("round stat %d message counts wrong (cluster size %d): %+v", i, members, rs)
		}
		if rs.AggregateNS < 0 {
			t.Errorf("round stat %d negative latency: %+v", i, rs)
		}
	}
	// Deterministic ordering: (EdgeID, Round) ascending.
	for i := 1; i < len(res.Phase2Rounds); i++ {
		a, b := res.Phase2Rounds[i-1], res.Phase2Rounds[i]
		if a.EdgeID > b.EdgeID || (a.EdgeID == b.EdgeID && a.Round >= b.Round) {
			t.Fatalf("round stats out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

// TestReceivedStatsMatchSent asserts the new received-side accounting:
// on the in-memory network every sent message is consumed, so both
// directions must agree per kind.
func TestReceivedStatsMatchSent(t *testing.T) {
	res := runCfg(t, tinyConfig())
	st := res.Stats
	if st.TotalReceivedMessages() != st.TotalMessages() {
		t.Fatalf("received %d messages, sent %d", st.TotalReceivedMessages(), st.TotalMessages())
	}
	if st.TotalReceivedBytes() != st.TotalBytes() {
		t.Fatalf("received %d bytes, sent %d", st.TotalReceivedBytes(), st.TotalBytes())
	}
	sent, recv := st.BytesByKind(), st.ReceivedBytesByKind()
	for _, k := range st.Kinds() {
		if sent[k] != recv[k] {
			t.Fatalf("kind %v: sent %d, received %d", k, sent[k], recv[k])
		}
	}
}

// TestEdgeRejectsDuplicateSetupUpload injects a forged duplicate
// DeviceStats before the run: the edge must fail loudly, naming the
// sender and kind, instead of silently overwriting.
func TestEdgeRejectsDuplicateSetupUpload(t *testing.T) {
	cfg := tinyConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := sys.Devices()[sys.Clusters()[0][0]]
	forged := DeviceStats{ID: victim.ID, VCPUs: 1, Storage: 1}
	if err := sys.send(transport.KindStats, "intruder", "edge-0", forged); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err = sys.Run(ctx)
	if err == nil {
		t.Fatal("duplicate setup upload did not fail the run")
	}
	if !strings.Contains(err.Error(), "duplicate") || !strings.Contains(err.Error(), "stats") {
		t.Fatalf("error does not name the duplicate kind: %v", err)
	}
}

// TestEdgeRejectsUnknownDeviceUpload: an upload for a device outside
// the cluster is a protocol violation, not data.
func TestEdgeRejectsUnknownDeviceUpload(t *testing.T) {
	cfg := tinyConfig()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	forged := DeviceStats{ID: 9999, VCPUs: 1, Storage: 1}
	if err := sys.send(transport.KindStats, "intruder", "edge-0", forged); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err = sys.Run(ctx)
	if err == nil {
		t.Fatal("unknown-device upload did not fail the run")
	}
	if !strings.Contains(err.Error(), "outside cluster") {
		t.Fatalf("error does not flag the unknown device: %v", err)
	}
}

// TestPow2Int8Scale pins the round-stable scale rule.
func TestPow2Int8Scale(t *testing.T) {
	if s := pow2Int8Scale(0); s != 0 {
		t.Fatalf("zero max-abs scale %v", s)
	}
	for _, maxAbs := range []float64{1e-9, 0.3, 1, 127, 128, 1e6} {
		s := pow2Int8Scale(maxAbs)
		exact := int8Scale(maxAbs)
		if s < exact || s >= 2*exact {
			t.Fatalf("maxAbs %v: pow2 scale %v outside [%v, %v)", maxAbs, s, exact, 2*exact)
		}
		if f, e := math.Frexp(s); f != 0.5 {
			t.Fatalf("maxAbs %v: scale %v (frexp %v,%d) not a power of two", maxAbs, s, f, e)
		}
	}
}

// TestResolveMixedLayerModes pins the mass-share lane assignment.
func TestResolveMixedLayerModes(t *testing.T) {
	// One dominant layer takes float16, the long tail rides int8.
	layers := [][]float64{
		{100, 90, 80},
		{0.1, 0.1},
		{0.2, 0.05, 0.01, 0.02},
	}
	modes := resolveMixedLayerModes(layers)
	if modes[0] != QuantFloat16 {
		t.Fatalf("dominant layer got %v", modes[0])
	}
	if modes[1] != QuantInt8 || modes[2] != QuantInt8 {
		t.Fatalf("tail layers got %v, %v", modes[1], modes[2])
	}
	// All-zero sets are exact in int8.
	for _, m := range resolveMixedLayerModes([][]float64{{0, 0}, {0}}) {
		if m != QuantInt8 {
			t.Fatalf("zero set lane %v", m)
		}
	}
	if got, err := ParseQuantMode("mixed"); err != nil || got != QuantMixed {
		t.Fatalf("ParseQuantMode(mixed) = %v, %v", got, err)
	}
	if !QuantMixed.Valid() || QuantMixed.String() != "mixed" {
		t.Fatal("QuantMixed mode metadata wrong")
	}
}
