package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"acme"
	"acme/internal/aggregate"
	"acme/internal/core"
	"acme/internal/data"
	"acme/internal/fleet"
	"acme/internal/importance"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/prune"
	"acme/internal/tensor"
	"acme/internal/transport"
	"acme/internal/wasserstein"
	"acme/internal/wire"
)

// sampling is how thoroughly a layer call is timed: the median of
// samples timed samples after one untimed call, where a sample repeats
// the call until it lasts target, so fast calls are timed in bulk. The
// zero value times the first call alone, for the unit test.
type sampling struct {
	samples int
	target  time.Duration
}

// fullSampling fits every layer's timings into ~8 s of the traced pass:
// calls slower than slowOp get 2 samples, slower than verySlowOp 1.
var fullSampling = sampling{samples: 5, target: 5 * time.Millisecond}

const (
	slowOp     = 40 * time.Millisecond
	verySlowOp = 200 * time.Millisecond
)

// timeOp returns fn's median time per call in nanoseconds and the heap
// objects a call allocates, averaged over the timed calls.
func (sp sampling) timeOp(fn func()) (nsPerCall, allocsPerCall float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	once := time.Since(t0)
	iters, n := 1, sp.samples
	switch {
	case n == 0:
		runtime.ReadMemStats(&m1)
		return float64(once.Nanoseconds()), float64(m1.Mallocs - m0.Mallocs)
	case once < sp.target:
		iters = int(sp.target/(once+1)) + 1
	case once > verySlowOp:
		n = 1
	case once > slowOp:
		n = 2
	}
	samples := make([]float64, n)
	runtime.ReadMemStats(&m0)
	for s := range samples {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		samples[s] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	runtime.ReadMemStats(&m1)
	return median(samples), float64(m1.Mallocs-m0.Mallocs) / float64(n*iters)
}

// timed is timeOp without the allocation count.
func (sp sampling) timed(fn func()) float64 {
	ns, _ := sp.timeOp(fn)
	return ns
}

// calibrate times a fixed loop that calls nothing in the repo, a naive
// 96^3 float64 multiply, in milliseconds. It moves only when the
// machine does.
func calibrate(sp sampling) float64 {
	const n = 96
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%7), float64(i%5)
	}
	return sp.timed(func() {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += a[i*n+k] * b[k*n+j]
				}
				c[i*n+j] = s
			}
		}
	}) / 1e6
}

// fixture holds the models and data the layer timings run on:
// customize-dense's datasets, an untrained reference model, the (0.5, 3)
// backbone customize-dense selects at seed 1, and a header of
// replayArch over it. Weights are untrained; the arithmetic is the same.
type fixture struct {
	cfg      acme.Config
	public   *data.Dataset
	local    *data.Dataset
	probe    *data.Dataset
	ref      *nn.BackboneClassifier
	backbone *nn.Backbone
	header   *nas.HeaderModel
	rng      *rand.Rand
}

func newFixture(toy bool) (*fixture, error) {
	cfg, err := systemConfig(wDense, toy)
	if err != nil {
		return nil, err
	}
	sys, err := acme.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(systemSeed))
	f := &fixture{cfg: cfg, public: sys.PublicDataset(), local: sys.DeviceTrain(0), rng: rng}
	f.probe = data.Probe(f.public, cfg.CloudProbe, rng)
	bb, err := nn.NewBackbone(cfg.Backbone, rng)
	if err != nil {
		return nil, err
	}
	f.ref = nn.NewBackboneClassifier(bb, cfg.NumClasses, rng)
	f.backbone = bb.Clone()
	if err := f.backbone.ScaleWidth(0.5); err != nil {
		return nil, err
	}
	if err := f.backbone.SetDepth(3); err != nil {
		return nil, err
	}
	if f.header, err = newReplayHeader(cfg, f.backbone, rng); err != nil {
		return nil, err
	}
	return f, nil
}

// layerFailure carries an error out of a timed closure; layerMetrics
// turns it back into its return value.
type layerFailure struct{ err error }

// layerMetrics times every layer's exported calls from outside.
func layerMetrics(ctx context.Context, sp sampling, toy bool) (m map[string]float64, err error) {
	f, err := newFixture(toy)
	if err != nil {
		return nil, err
	}
	m = map[string]float64{}
	must := func(err error) {
		if err != nil {
			panic(layerFailure{err})
		}
	}
	defer func() {
		if r := recover(); r != nil {
			lf, ok := r.(layerFailure)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer timing: %w", lf.err)
		}
	}()

	layerTensor(m, sp, f.rng)
	layerNN(m, sp, f, must)
	layerCloud(m, sp, f, must)
	layerNAS(m, sp, f, must)
	layerAggregate(m, sp, f, must)
	layerWire(m, sp, f, must)
	layerTransport(ctx, m, sp, f, must)
	layerFleet(m, sp)
	return m, err
}

func layerTensor(m map[string]float64, sp sampling, rng *rand.Rand) {
	mat := func(r, c int) *tensor.Matrix {
		x := tensor.New(r, c)
		x.Randomize(rng, 1)
		return x
	}
	x, w, dy := mat(9, 32), mat(32, 64), mat(9, 64)
	y, dw, dx := tensor.New(9, 64), tensor.New(32, 64), tensor.New(9, 32)
	m["tensor.matmul_small_ns"], m["tensor.allocs_per_matmul"] = sp.timeOp(func() { tensor.MatMulInto(y, x, w) })
	m["tensor.matmul_transA_small_ns"] = sp.timed(func() { tensor.MatMulTransAInto(dw, x, dy) })
	m["tensor.matmul_transB_small_ns"] = sp.timed(func() { tensor.MatMulTransBInto(dx, dy, w) })
	a, b, c := mat(256, 256), mat(256, 256), tensor.New(256, 256)
	m["tensor.matmul_large_ns"] = sp.timed(func() { tensor.MatMulInto(c, a, b) })
}

func layerNN(m map[string]float64, sp sampling, f *fixture, must func(error)) {
	x, one := f.public.X[0], []int{0}
	m["nn.backbone_fwd_us"] = sp.timed(func() { _, err := f.ref.Backbone.Forward(x); must(err) }) / 1e3
	m["nn.backbone_fwdbwd_us"] = sp.timed(func() { must(nn.BatchGradients(f.ref, f.public.X, f.public.Y, one)) }) / 1e3
	opt := nn.NewAdam(1e-3)
	epoch := func() {
		_, err := nn.TrainEpoch(f.ref, opt, f.public.X, f.public.Y, 16, f.rng)
		must(err)
	}
	ns, allocs := sp.timeOp(epoch)
	m["nn.train_epoch_ms"], m["nn.train_epoch_allocs"] = ns/1e6, allocs
	m["nn.evaluate_ms"] = sp.timed(func() { _, err := nn.Evaluate(f.ref, f.probe.X, f.probe.Y); must(err) }) / 1e6
}

func layerCloud(m map[string]float64, sp sampling, f *fixture, must func(error)) {
	m["prune.ensure_importance_ms"] = sp.timed(func() {
		must(prune.NewGenerator(f.ref, f.public, f.cfg.Distill).EnsureImportance(256, f.rng))
	}) / 1e6
	gen := prune.NewGenerator(f.ref, f.public, f.cfg.Distill)
	must(gen.EnsureImportance(256, f.rng))
	m["prune.generate_ms"] = sp.timed(func() { _, err := gen.Generate(0.5, 3, f.rng); must(err) }) / 1e6

	var cands []pareto.Candidate
	eval := sweepEval(nil, -1, 1, f.ref, f.probe, func(w float64, d int) float64 { return w * float64(d) })
	m["pareto.sweep_ms"] = sp.timed(func() { cands = pareto.SweepCandidates(f.cfg.Widths, f.cfg.Depths, eval) }) / 1e6
	sizeCap := 0.75 * float64(f.ref.Backbone.ActiveParamCount())
	m["pareto.build_select_us"] = sp.timed(func() {
		grid, err := pareto.Build(cands, f.cfg.Pareto)
		must(err)
		// No candidate under the cap is a valid outcome, not a failure.
		_, _ = grid.Select(sizeCap)
	}) / 1e3
}

func layerNAS(m map[string]float64, sp sampling, f *fixture, must func(error)) {
	// The edge searches on the shards its devices share: 4 devices x 8.
	shared := data.Probe(f.local, 32, f.rng)
	train, val := shared.Split(0.8, f.rng)
	m["nas.search_ms"] = sp.timed(func() {
		s, err := nas.NewSearcher(f.cfg.Search, f.backbone.Clone(), f.cfg.NumClasses, train, val, f.rng)
		must(err)
		arch, _, err := s.Search()
		must(err)
		_, err = s.BuildFinal(arch)
		must(err)
	}) / 1e6

	one := []int{0}
	m["nas.header_fwdbwd_us"] = sp.timed(func() { must(nn.BatchGradients(f.header, f.local.X, f.local.Y, one)) }) / 1e3
	trainLocal := func() {
		must(f.header.TrainLocal(f.local, f.cfg.LocalEpochs, f.cfg.LocalBatch, f.cfg.LocalLR, f.rng))
	}
	ns, allocs := sp.timeOp(trainLocal)
	m["nas.train_local_ms"], m["nas.train_local_allocs"] = ns/1e6, allocs

	acc := importance.NewAccumulator()
	const batches = 8
	fold := func() {
		acc.Reset()
		_, err := acc.FoldBatches(f.header, f.local, f.cfg.LocalBatch, batches, f.rng)
		must(err)
	}
	ns, allocs = sp.timeOp(fold)
	m["importance.fold_batch_ms"], m["importance.fold_allocs_per_batch"] = ns/batches/1e6, allocs/batches
	var set *importance.Set
	m["importance.average_us"] = sp.timed(func() {
		var err error
		set, err = acc.Average()
		must(err)
	}) / 1e3
	// On a clone: pruning would make every later header timing cheaper.
	pruned := f.header.Clone(f.backbone)
	m["nas.apply_importance_us"] = sp.timed(func() { must(pruned.ApplyImportance(set, f.cfg.DiscardPerRound)) }) / 1e3
}

func layerAggregate(m map[string]float64, sp sampling, f *fixture, must func(error)) {
	fx := data.NewFeatureExtractor(f.cfg.Dataset.Dim, f.cfg.FeatureDim, 7)
	features := func(n int) ([][][]float64, [][]float64) {
		feats, hists := make([][][]float64, n), make([][]float64, n)
		for i := range feats {
			probe := data.Probe(f.public, f.cfg.ProbeSize, f.rng)
			feats[i] = fx.ExtractAll(probe)
			hists[i] = probe.ClassHistogram()
		}
		return feats, hists
	}
	feats, hists := features(100)
	m["wasserstein.sliced_us"] = sp.timed(func() {
		_, err := wasserstein.Sliced(feats[0], feats[1], 1, 24, f.rng)
		must(err)
	}) / 1e3
	similarity := func(n int) float64 {
		return sp.timed(func() {
			_, err := aggregate.MatrixFor(aggregate.Wasserstein, n, hists[:n], feats[:n], f.rng, f.cfg.DistanceScale)
			must(err)
		}) / 1e6
	}
	m["aggregate.similarity_n4_ms"] = similarity(4)
	m["aggregate.similarity_n100_ms"] = similarity(100)

	x, err := buildExchange(systemSeed, fullExchange)
	must(err)
	sets := make([]*importance.Set, len(x.state))
	for d := range sets {
		sets[d] = &importance.Set{Layers: widen(x.state[d])}
	}
	var addNS, resultNS []float64
	_, m["aggregate.allocs_per_round"] = sp.timeOp(func() {
		comb, err := aggregate.NewCombiner(x.sim)
		must(err)
		t0 := time.Now()
		for d, s := range sets {
			must(comb.Add(d, s))
		}
		t1 := time.Now()
		_, _, err = comb.Result(nil)
		must(err)
		addNS = append(addNS, float64(t1.Sub(t0).Nanoseconds())/float64(len(sets)))
		resultNS = append(resultNS, float64(time.Since(t1).Nanoseconds()))
	})
	m["aggregate.add_us"] = median(addNS) / 1e3
	m["aggregate.result_us"] = median(resultNS) / 1e3
}

// mbps converts a per-call time over n bytes to MB/s.
func mbps(n int, nsPerCall float64) float64 { return float64(n) / nsPerCall * 1e3 }

func layerWire(m map[string]float64, sp sampling, f *fixture, must func(error)) {
	x, err := buildExchange(systemSeed, exchangeSize{devices: 1})
	must(err)
	up := core.ImportanceUpload{DeviceID: 0, Layers: x.state[0]}
	var dense []byte
	encode := func() { dense, err = wire.Encode(up); must(err) }
	encodeNS := sp.timed(encode)
	m["wire.encode_dense_mbps"] = mbps(len(dense), encodeNS)
	arena := &wire.Arena{AliasInput: true}
	// Into a reused, warmed target, as the codec's zero-allocation
	// contract says.
	var out core.ImportanceUpload
	decode := func() {
		arena.Reset()
		must(wire.DecodeArena(dense, &out, arena))
	}
	decode()
	ns, allocs := sp.timeOp(decode)
	m["wire.decode_dense_mbps"], m["wire.decode_dense_allocs"] = mbps(len(dense), ns), allocs

	// One round of drift: diff and apply over the layers' packed bytes.
	var shadow [][]byte
	diffLayers(&shadow, x.state[0])
	prev := shadow
	x.drift(0)
	packed := 0
	for _, p := range prev {
		packed += len(p)
	}
	var pls []core.DeltaLayerPayload
	m["wire.delta_diff_mbps"] = mbps(packed, sp.timed(func() {
		shadow = prev
		pls = diffLayers(&shadow, x.state[0])
	}))
	m["wire.delta_apply_mbps"] = mbps(packed, sp.timed(func() {
		for l := range pls {
			_, err := pls[l].Delta.Apply(prev[l])
			must(err)
		}
	}))
	var compressed []byte
	m["wire.entropy_compress_mbps"] = mbps(len(dense), sp.timed(func() { compressed = wire.EntropyCompress(dense) }))
	m["wire.entropy_expand_mbps"] = mbps(len(dense), sp.timed(func() {
		_, _, err := wire.EntropyExpand(compressed)
		must(err)
	}))
	delta, err := wire.Encode(core.DeltaUpload{DeviceID: 0, Round: 1, Layers: pls})
	must(err)
	m["wire.shaped_bytes_ratio"] = float64(len(dense)) / float64(len(wire.EntropyCompress(delta)))

	pkg := core.EncodeHeader(f.header, core.QuantLossless)
	pkg.Backbone = core.EncodeBackbone(f.backbone, 0.5, 3, pareto.Candidate{W: 0.5, D: 3}, core.QuantLossless)
	var frame []byte
	m["wire.encode_header_ms"] = sp.timed(func() { frame, err = wire.Encode(pkg); must(err) }) / 1e6
	m["wire.decode_header_ms"] = sp.timed(func() {
		var out core.HeaderPackage
		must(wire.Decode(frame, &out))
	}) / 1e6
}

func layerTransport(ctx context.Context, m map[string]float64, sp sampling, f *fixture, must func(error)) {
	// Upload-sized: a zeroed importance set shaped like the header.
	payload, err := wire.Encode(core.ImportanceUpload{Layers: narrow(importance.NewSet(f.header).Layers)})
	must(err)

	mem := transport.NewMemory()
	mem.Register("a", 4)
	upload := transport.Message{Kind: transport.KindImportanceSet, From: "b", To: "a", Payload: payload}
	m["transport.mem_send_recv_us"] = sp.timed(func() {
		must(mem.Send(upload))
		_, err := mem.Recv(ctx, "a")
		must(err)
	}) / 1e3

	const peers = 64
	names := make([]string, peers)
	gmem := transport.NewMemory()
	gmem.Register(edgeNode, 2*peers)
	for i := range names {
		names[i] = fmt.Sprintf("device-%d", i)
	}
	ses := transport.NewSession(edgeNode, gmem)
	round := 0
	m["transport.gather_us_per_msg"] = sp.timed(func() {
		for _, nm := range names {
			must(gmem.Send(transport.Message{Kind: transport.KindImportanceSet, From: nm, To: edgeNode, Round: round, Payload: payload[:64]}))
		}
		_, err := ses.Gather(ctx, transport.GatherSpec{
			Round: round, Kinds: []transport.Kind{transport.KindImportanceSet}, Expect: names,
			OnMessage: func(transport.Message) error { return nil },
		})
		must(err)
		round++
	}) / peers / 1e3

	a, err := acme.NewTCPNetwork("a", "127.0.0.1:0", nil)
	must(err)
	defer a.Close()
	b, err := acme.NewTCPNetwork("b", "127.0.0.1:0", nil)
	must(err)
	defer b.Close()
	table := map[string]string{"a": a.Addr(), "b": b.Addr()}
	a.SetPeers(table)
	b.SetPeers(table)
	ping := transport.Message{Kind: transport.KindStats, From: "a", To: "b", Payload: payload[:64]}
	pong := transport.Message{Kind: transport.KindStats, From: "b", To: "a", Payload: payload[:64]}
	m["transport.tcp_rtt_us"] = sp.timed(func() {
		must(a.Send(ping))
		msg, err := b.Recv(ctx, "b")
		must(err)
		msg.Release()
		must(b.Send(pong))
		msg, err = a.Recv(ctx, "a")
		must(err)
		msg.Release()
	}) / 1e3
	// A burst small enough to sit in b's inbox: a sends, then b drains.
	const burst = 16
	frame := transport.Message{Kind: transport.KindImportanceSet, From: "a", To: "b", Payload: payload}
	m["transport.tcp_mbps"] = mbps(burst*len(payload), sp.timed(func() {
		for i := 0; i < burst; i++ {
			must(a.Send(frame))
		}
		for i := 0; i < burst; i++ {
			msg, err := b.Recv(ctx, "b")
			must(err)
			msg.Release()
		}
	}))
}

func layerFleet(m map[string]float64, sp sampling) {
	const members = 2000
	names := make([]string, members)
	genesis := make(map[string]int, members)
	for i := range names {
		names[i] = fmt.Sprintf("device-%d", i)
		genesis[names[i]] = i
	}
	reg := fleet.NewRegistry()
	reg.Seed(genesis)
	sampler := fleet.Sampler{Frac: 0.1, Seed: systemSeed}
	round := 0
	m["fleet.sample_us"] = sp.timed(func() { sampler.Sample(round, names); round++ }) / 1e3
	i := 0
	m["fleet.registry_join_us"] = sp.timed(func() { reg.Join(names[i%members], i%members); i++ }) / 1e3
	m["fleet.record_gather_us"] = sp.timed(func() { reg.RecordGather(names[i%members], i, 1024, time.Millisecond); i++ }) / 1e3
}
