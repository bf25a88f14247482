package core

import (
	"context"
	"testing"
	"time"

	"acme/internal/nn"
	"acme/internal/transport"
	"acme/internal/wire"
)

// deviceRoundFixture is a device in its Phase 2-2 loop after warm-up,
// and a round-t downlink it can take every round: a set shaped like
// its header (dense records when the wire is delta-encoded), so every
// round it plays is a steady-state round.
type deviceRoundFixture struct {
	d   *deviceRounds
	t   int
	msg transport.Message
}

func newDeviceRoundFixture(tb testing.TB, pkg HeaderPackage, wo WireOptions) *deviceRoundFixture {
	tb.Helper()
	e := newExchangeDevice(tb, pkg, wo, 11)
	for r := 0; r < 2; r++ {
		if err := e.round(r); err != nil {
			tb.Fatal(err)
		}
	}
	f := &deviceRoundFixture{d: e.d, t: 2, msg: transport.Message{From: e.d.edge, Round: 2}}
	layers := make([][]float64, 0, len(e.d.header.Params()))
	for _, p := range e.d.header.Params() {
		l := make([]float64, p.NumParams())
		for j, v := range p.Value.Data {
			l[j] = v * v
		}
		layers = append(layers, l)
	}
	var val any
	if e.d.delta {
		enc := deltaEncoder{mode: wo.Quantization}
		pls, err := enc.encodeLayers(layers)
		if err != nil {
			tb.Fatal(err)
		}
		f.msg.Kind, val = transport.KindImportanceDownDelta, DownlinkDelta{Round: f.t, Discard: 2, Layers: pls}
		defer enc.reset()
	} else {
		f.msg.Kind, val = transport.KindPersonalizedSet, PersonalizedSet{Layers: quantizeSetInto(nil, layers), Discard: 2}
	}
	var err error
	if f.msg.Payload, err = wire.Encode(val); err != nil {
		tb.Fatal(err)
	}
	return f
}

// play is the device's side of one round: the upload's importance,
// average and encoding (its frame released unsent), then the downlink's
// decode, ApplyImportance and one epoch of local training.
func (f *deviceRoundFixture) play() error {
	var drs DeviceRoundStat
	_, buf, _, err := f.d.prepareUpload(f.t, &drs)
	if err != nil {
		return err
	}
	buf.Release()
	var out downlinkOutcome
	out.layers, out.discard, out.final, err = f.d.s.decodePersonalized(&f.d.downDec, f.msg, f.d.edge, f.t, &f.d.rows, f.d.header.Params())
	if err != nil {
		return err
	}
	return f.d.apply(f.t, out)
}

// steadyRoundAllocs bounds the objects a warm round of the fixture's
// 19 844-parameter header allocates: 22 on the dense wire and 35 on
// delta records in the mixed lanes when it was set. They are the
// minibatch orders, optimizer and pass of the two training calls, the
// set, record and lane lists of the exchange, the boxing of its frame,
// and the mask and changed elements a layer that travels as a sparse
// delta owns. None is per parameter: the importance sum and average,
// the packed round, both delta shadows, the decoded downlink and
// ApplyImportance's ranking are borrowed or patched in place.
const steadyRoundAllocs = 40

// TestSteadyDeviceRoundAllocates: after warm-up, a device round
// (prepareUpload → apply) allocates at most steadyRoundAllocs objects,
// on the dense lossless wire and on delta records in the mixed lanes,
// and gives back every slab it borrows.
func TestSteadyDeviceRoundAllocates(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("-race allocates on its own")
	}
	pkg := fleetPackage(t)
	for _, c := range []struct {
		name string
		wo   WireOptions
	}{
		{"dense", WireOptions{}},
		{"delta-mixed", WireOptions{DeltaImportance: true, Quantization: QuantMixed}},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newDeviceRoundFixture(t, pkg, c.wo)
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				if e := f.play(); e != nil {
					err = e
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%v allocations per round", allocs)
			if allocs > steadyRoundAllocs {
				t.Errorf("%v allocations per steady-state round, want at most %d", allocs, steadyRoundAllocs)
			}
			if n := nn.Lent(); n != 0 {
				t.Errorf("%d slabs still lent between rounds", n)
			}
		})
	}
}

// BenchmarkDeviceRound times one steady-state device round of a fleet
// device (the 19 844-parameter header of BenchmarkBuildDeviceHeader):
// importance, average and encoding of its upload, then decode, apply
// and one epoch of local training on its downlink. Its allocs/op grow
// with GOMAXPROCS by the passes' replicas; at GOMAXPROCS 1 they are
// TestSteadyDeviceRoundAllocates' count.
func BenchmarkDeviceRound(b *testing.B) {
	pkg := fleetPackage(b)
	for _, c := range []struct {
		name string
		wo   WireOptions
	}{
		{"dense", WireOptions{}},
		{"delta-mixed", WireOptions{DeltaImportance: true, Quantization: QuantMixed}},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := newDeviceRoundFixture(b, pkg, c.wo)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.play(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSampledFleetGivesEverythingBack: a sampled memory fleet on the
// fleet-sampled workload's wire (delta records in the mixed lanes)
// ends with nothing borrowed: every scratch slab is back in nn's pool,
// and every wire buffer — frames and both ends' delta shadows — in
// wire's, once the network is closed.
func TestSampledFleetGivesEverythingBack(t *testing.T) {
	cfg := tinyConfig()
	cfg.Phase2Rounds = 4
	cfg.Fleet.SampleFrac = 0.5
	cfg.Wire.DeltaImportance = true
	cfg.Wire.Quantization = QuantMixed
	start := wire.Leased()
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
	if len(res.Reports) != cfg.EdgeServers*cfg.Fleet.Spec.DevicesPerCluster {
		t.Fatalf("%d reports", len(res.Reports))
	}
	if err := sys.Net.(*transport.Memory).Close(); err != nil {
		t.Fatal(err)
	}
	if n := nn.Lent(); n != 0 {
		t.Errorf("%d slabs still lent after Run", n)
	}
	if n := wire.Leased() - start; n != 0 {
		t.Errorf("%d wire buffers still leased after Run", n)
	}
}
