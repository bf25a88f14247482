package core

import (
	"math/rand"
	"testing"

	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/wire"
)

func benchBackbone(b *testing.B) *nn.Backbone {
	b.Helper()
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: 64, NumPatches: 8, DModel: 32, NumHeads: 4, Hidden: 64, Depth: 4,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return bb
}

// BenchmarkEncodeBackbone measures the full cloud → edge distribution
// encode: parameter packaging (with quantization where configured)
// plus payload serialization, reporting bytes per message.
func BenchmarkEncodeBackbone(b *testing.B) {
	bb := benchBackbone(b)
	cases := []struct {
		name string
		mode QuantMode
	}{
		{"binary-lossless", QuantLossless},
		{"binary-float16", QuantFloat16},
		{"binary-int8", QuantInt8},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var bytes int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				asg := EncodeBackbone(bb, 1, 4, pareto.Candidate{W: 1, D: 4}, c.mode)
				payload, err := wire.Encode(asg)
				if err != nil {
					b.Fatal(err)
				}
				bytes = len(payload)
			}
			b.ReportMetric(float64(bytes), "wire-bytes")
		})
	}
}

// BenchmarkDecodeBackbone measures the edge-side decode back to a
// usable model.
func BenchmarkDecodeBackbone(b *testing.B) {
	bb := benchBackbone(b)
	cases := []struct {
		name string
		mode QuantMode
	}{
		{"binary-lossless", QuantLossless},
		{"binary-int8", QuantInt8},
	}
	for _, c := range cases {
		asg := EncodeBackbone(bb, 1, 4, pareto.Candidate{W: 1, D: 4}, c.mode)
		payload, err := wire.Encode(asg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var decoded BackboneAssignment
				if err := wire.Decode(payload, &decoded); err != nil {
					b.Fatal(err)
				}
				if _, err := DecodeBackbone(decoded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fleetPackage is the model package a fleet device receives: the
// default backbone and a 19 844-parameter header.
func fleetPackage(tb testing.TB) HeaderPackage {
	tb.Helper()
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	bb, err := nn.NewBackbone(cfg.Backbone, rng)
	if err != nil {
		tb.Fatal(err)
	}
	hc := nas.HeaderConfig{
		Blocks: cfg.Search.Blocks, Repeats: cfg.Search.Repeats,
		DModel: cfg.Backbone.DModel, Hidden: cfg.Search.Hidden, NumClasses: cfg.NumClasses,
	}
	arch := nas.Architecture{Blocks: []nas.BlockGene{
		{In1: 0, In2: 1, Op1: nas.OpConv5, Op2: nas.OpAvgPool},
		{In1: 1, In2: 2, Op1: nas.OpConv3, Op2: nas.OpIdentity},
		{In1: 0, In2: 3, Op1: nas.OpConv5, Op2: nas.OpMaxPool},
		{In1: 2, In2: 4, Op1: nas.OpConv1, Op2: nas.OpDownsample},
	}}
	h, err := nas.NewHeaderModel(hc, arch, bb, rng)
	if err != nil {
		tb.Fatal(err)
	}
	pkg := EncodeHeader(h, QuantLossless)
	pkg.Backbone = EncodeBackbone(bb, 1, cfg.Backbone.Depth, pareto.Candidate{W: 1, D: cfg.Backbone.Depth}, QuantLossless)
	return pkg
}

// BenchmarkBuildDeviceHeader measures what each of a fleet's devices
// pays to turn the package its edge sent into a model: the default
// backbone and a 19 844-parameter header, decoded as received layers —
// no random initialisation, no gradient storage. "decode" is a device
// that featurizes (a private shard, a shared shard's owner); "holder"
// is a shared shard's other holder, which builds the header alone and
// keeps its frame, whose backbone encoding it compares with the owner's.
func BenchmarkBuildDeviceHeader(b *testing.B) {
	pkg := fleetPackage(b)
	for _, c := range []struct {
		name  string
		build func() error
	}{
		{"decode", func() error {
			bb, err := DecodeBackbone(pkg.Backbone)
			if err == nil {
				_, err = buildDeviceHeader(pkg, bb)
			}
			return err
		}},
		{"holder", func() error {
			_, err := buildDeviceHeader(pkg, nil)
			return err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
