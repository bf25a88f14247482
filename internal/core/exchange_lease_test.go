package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acme/internal/cluster"
	"acme/internal/data"
	"acme/internal/nn"
	"acme/internal/transport"
	"acme/internal/wire"
)

// TestExchangeLeasesComeBack: after Run, every row the Phase 2-2
// exchange leased — the edge's decoded uploads, combiner accumulators
// and downlink wire copies, the devices' averaged sets, wire copies and
// decoded downlinks — is back in the pool, whichever path the rounds
// took, a run cancelled mid-gather included. The convergence monitor
// changes how long the combined sets are kept (to the next round's
// result, or to the downlinks) but not what is computed: with an
// epsilon nothing reaches, the reports equal the unmonitored run's.
func TestExchangeLeasesComeBack(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"dense", func(*Config) {}},
		{"monitor", func(c *Config) { c.ConvergenceEpsilon = 1e-300 }},
		{"delta-mixed", func(c *Config) { c.Wire.Quantization = QuantMixed }},
		{"sampled", func(c *Config) { c.Fleet.SampleFrac = 0.5 }},
		{"detect", func(c *Config) { c.Fleet.Detect = true }},
		{"cancelled", func(c *Config) { c.ConvergenceEpsilon = 1e-300 }},
	}
	reports := map[string][]DeviceReport{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Phase2Rounds = 4
			c.set(&cfg)
			sys, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			if c.name == "cancelled" {
				// The run ends the moment edge-0 receives its second
				// upload of round 2: its combiner holds leased
				// accumulators and its monitor the sets of round 1.
				sys.Net = &cancelOnUpload{Network: sys.Net, edge: edgeName(0), round: 2, cancel: cancel}
			}
			res, err := sys.Run(ctx)
			if c.name == "cancelled" {
				if err == nil {
					t.Fatal("a run cancelled mid-gather returned no error")
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if n := nn.Lent(); n != 0 {
				t.Errorf("%d slabs still lent after Run", n)
			}
			if res != nil {
				reports[c.name] = res.Reports
			}
		})
	}
	if !reflect.DeepEqual(reports["monitor"], reports["dense"]) {
		t.Errorf("monitored run reports %+v, unmonitored %+v", reports["monitor"], reports["dense"])
	}
}

// cancelOnUpload is a Network that cancels the run when edge receives
// its second importance upload of round.
type cancelOnUpload struct {
	transport.Network
	edge   string
	round  int
	cancel context.CancelFunc
	seen   atomic.Int32
}

func (n *cancelOnUpload) Recv(ctx context.Context, node string) (transport.Message, error) {
	msg, err := n.Network.Recv(ctx, node)
	if err == nil && node == n.edge && msg.Round == n.round && msg.Kind == transport.KindImportanceSet && n.seen.Add(1) == 2 {
		n.cancel()
	}
	return msg, err
}

// exchangeDevice is one device's side of the Phase 2-2 exchange, with
// the edge in between played by the test: the combine is the identity,
// so each downlink carries back the set the device uploaded.
type exchangeDevice struct {
	d       *deviceRounds
	arena   wire.Arena
	shadow  deltaDecoder // the edge's copy of the uplink chain
	downEnc deltaEncoder // the edge's downlink chain
	uploads [][]byte
}

func newExchangeDevice(tb testing.TB, pkg HeaderPackage, wo WireOptions, seed int64) *exchangeDevice {
	tb.Helper()
	model, err := decodedDeviceModel(pkg)
	if err != nil {
		tb.Fatal(err)
	}
	header, err := model.Frozen(pkg.Backbone.Cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	dim, classes := pkg.Backbone.Cfg.InputDim, pkg.HeaderCfg.NumClasses
	local := &data.Dataset{Name: "local", NumClasses: classes, Dim: dim, X: make([][]float64, 32), Y: make([]int, 32)}
	for i := range local.X {
		local.X[i] = make([]float64, dim)
		for j := range local.X[i] {
			local.X[i][j] = rng.NormFloat64()
		}
		local.Y[i] = rng.Intn(classes)
	}
	feats, err := model.Featurize(local)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Wire = wo
	cfg.LocalBatch = 8
	s := &System{Cfg: cfg}
	return &exchangeDevice{
		d:       s.newDeviceRounds(nil, cluster.Device{ID: int(seed)}, "edge-0", rng, feats, header, pkg, 0),
		arena:   wire.Arena{AliasInput: true},
		downEnc: deltaEncoder{mode: wo.Quantization},
	}
}

// round plays round t: the device's upload, the edge's decode into
// leased rows and its downlink, and the device's decode and apply.
func (e *exchangeDevice) round(t int) error {
	var drs DeviceRoundStat
	kind, buf, _, err := e.d.prepareUpload(t, &drs)
	if err != nil {
		return err
	}
	defer buf.Release()
	payload := buf.B
	e.uploads = append(e.uploads, slices.Clone(payload))
	var rows nn.Lease
	defer rows.Release()
	var layers [][]float64
	e.arena.Reset()
	if kind == transport.KindImportanceDelta {
		var up DeltaUpload
		if err := wire.DecodeArena(payload, &up, &e.arena); err != nil {
			return err
		}
		if layers, err = e.shadow.apply(up.Layers, false, &rows); err != nil {
			return err
		}
	} else {
		var up ImportanceUpload
		if err := wire.DecodeArena(payload, &up, &e.arena); err != nil {
			return err
		}
		layers = dequantizeSetInto(&rows, up.Layers)
	}
	msg := transport.Message{From: "edge-0", Round: t}
	var val any
	if e.d.delta {
		pls, err := e.downEnc.encodeLayers(layers)
		if err != nil {
			return err
		}
		msg.Kind, val = transport.KindImportanceDownDelta, DownlinkDelta{Round: t, Discard: 2 * (t + 1), Layers: pls}
	} else {
		msg.Kind, val = transport.KindPersonalizedSet, PersonalizedSet{Layers: quantizeSetInto(&rows, layers), Discard: 2 * (t + 1)}
	}
	if msg.Payload, err = wire.Encode(val); err != nil {
		return err
	}
	rows.Release()
	var out downlinkOutcome
	out.layers, out.discard, out.final, err = e.d.s.decodePersonalized(&e.d.downDec, msg, t, &e.d.rows, e.d.header.Params())
	if err != nil {
		return err
	}
	return e.d.apply(t, out)
}

// TestDevicesShareTheExchangePool: devices that play their rounds on
// goroutines of their own lease every row of the exchange from one
// pool, and each one's uploads and trained header are bit-identical to
// a twin's that played alone. Under -race (make race) it also checks
// that rows handed from one goroutine to the next are not still written
// by the first.
func TestDevicesShareTheExchangePool(t *testing.T) {
	const devices, rounds = 4, 3
	_, _, pkg := receivedFixture(t)
	wires := []WireOptions{{}, {Quantization: QuantMixed}, {DeltaImportance: true}, {Quantization: QuantInt8}}
	play := func(e *exchangeDevice) error {
		for r := 0; r < rounds; r++ {
			if err := e.round(r); err != nil {
				return fmt.Errorf("round %d: %w", r, err)
			}
		}
		return nil
	}
	var devs, twins [devices]*exchangeDevice
	for i := range devs {
		devs[i] = newExchangeDevice(t, pkg, wires[i], int64(11+i))
		twins[i] = newExchangeDevice(t, pkg, wires[i], int64(11+i))
	}
	var errs [devices]error
	var wg sync.WaitGroup
	for i := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = play(devs[i])
		}()
	}
	wg.Wait()
	if n := nn.Lent(); n != 0 {
		t.Errorf("%d slabs still lent", n)
	}
	for i := range devs {
		if errs[i] != nil {
			t.Fatalf("device %d: %v", i, errs[i])
		}
		if err := play(twins[i]); err != nil {
			t.Fatalf("twin %d: %v", i, err)
		}
		if !reflect.DeepEqual(devs[i].uploads, twins[i].uploads) {
			t.Errorf("device %d: uploads differ from its twin's", i)
		}
		got, want := devs[i].d.header.Params(), twins[i].d.header.Params()
		for k := range got {
			for j, v := range got[k].Value.Data {
				if math.Float64bits(v) != math.Float64bits(want[k].Value.Data[j]) {
					t.Fatalf("device %d: %s differs from its twin trained alone", i, got[k].Name)
				}
			}
		}
		if !reflect.DeepEqual(devs[i].d.header.ExportMasks(), twins[i].d.header.ExportMasks()) {
			t.Errorf("device %d: masks differ from its twin's", i)
		}
	}
}
