package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"acme"
	"acme/internal/aggregate"
	"acme/internal/importance"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/transport"
	"acme/internal/wasserstein"
	"acme/internal/wire"
)

// replayArch is the header every exchange-replay payload is shaped
// like: the default search space's 4 blocks with the parametric ops a
// searched header typically keeps, 19 844 importance entries (79 KB as
// float32), close to the 77 KB uploads of customize-dense at seed 1.
var replayArch = nas.Architecture{Blocks: []nas.BlockGene{
	{In1: 0, In2: 1, Op1: nas.OpConv5, Op2: nas.OpAvgPool},
	{In1: 1, In2: 2, Op1: nas.OpConv3, Op2: nas.OpIdentity},
	{In1: 0, In2: 3, Op1: nas.OpConv5, Op2: nas.OpMaxPool},
	{In1: 2, In2: 4, Op1: nas.OpConv1, Op2: nas.OpDownsample},
}}

// newReplayHeader builds a header of replayArch over backbone at the
// default config.
func newReplayHeader(cfg acme.Config, backbone *nn.Backbone, rng *rand.Rand) (*nas.HeaderModel, error) {
	hc := nas.HeaderConfig{
		Blocks: cfg.Search.Blocks, Repeats: cfg.Search.Repeats,
		DModel: cfg.Backbone.DModel, Hidden: cfg.Search.Hidden, NumClasses: cfg.NumClasses,
	}
	return nas.NewHeaderModel(hc, replayArch, backbone, rng)
}

// exchangeSize is the shape of one exchange-replay run: the first
// denseRounds rounds travel dense, the rest as delta records under the
// entropy coder.
type exchangeSize struct {
	devices, rounds, denseRounds int
	// checkEvery is the stride of rounds whose downlinks are compared
	// with aggregate.Combine; the first and last round of each mode are
	// always checked.
	checkEvery int
}

// fullExchange is 64 devices for 68 rounds. A dense round takes ~55 ms
// here; the first shaped round re-seeds every chain and takes ~1.1 s,
// each delta round after it ~0.6 s (the range coder runs at ~8 MB/s and
// every downlink changes in full, because the combine mixes all 64
// uploads). 64 dense rounds (~3.6 s) against 4 shaped ones (~2.9 s)
// split a run's time about evenly between the two paths, so that
// run_wall_s and run_cpu_s gate the dense codec, the session and the
// combiner as firmly as the range coder; the run budget holds three
// repeats.
var fullExchange = exchangeSize{devices: 64, rounds: 68, denseRounds: 64, checkEvery: 16}

// driftFrac is the share of each layer's entries that change per round.
const driftFrac = 0.05

const edgeNode = "edge-0"

// exchange is the generated input of exchange-replay: every device's
// starting importance layers, the cluster's similarity matrix and the
// seeded drift stream.
type exchange struct {
	size  exchangeSize
	names []string
	state [][][]float32 // device → layer → entries
	sim   [][]float64
	rng   *rand.Rand
}

// buildExchange generates the workload's inputs from seed.
func buildExchange(seed int64, size exchangeSize) (*exchange, error) {
	cfg := acme.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	backbone, err := nn.NewBackbone(cfg.Backbone, rng)
	if err != nil {
		return nil, err
	}
	header, err := newReplayHeader(cfg, backbone, rng)
	if err != nil {
		return nil, err
	}
	shape := importance.NewSet(header)
	x := &exchange{size: size, rng: rng}
	for d := 0; d < size.devices; d++ {
		x.names = append(x.names, fmt.Sprintf("device-%d", d))
		layers := make([][]float32, len(shape.Layers))
		for l, entries := range shape.Layers {
			// Squared gradient-weight products: small, positive, skewed.
			layers[l] = make([]float32, len(entries))
			for i := range layers[l] {
				g := rng.NormFloat64() * 1e-2
				layers[l][i] = float32(g * g)
			}
		}
		x.state = append(x.state, layers)
	}
	dist := make([][]float64, size.devices)
	for i := range dist {
		dist[i] = make([]float64, size.devices)
	}
	for i := range dist {
		for j := i + 1; j < len(dist); j++ {
			dist[i][j] = rng.Float64()
			dist[j][i] = dist[i][j]
		}
	}
	if x.sim, err = wasserstein.SimilarityFromDistances(dist); err != nil {
		return nil, err
	}
	return x, nil
}

// drift rescales exactly driftFrac of each layer's entries of device d,
// on a seeded stride so no entry is drawn twice in a round.
func (x *exchange) drift(d int) {
	for _, layer := range x.state[d] {
		n := len(layer)
		k := int(driftFrac * float64(n))
		start, step := x.rng.Intn(n), 1+2*x.rng.Intn(n/2)
		for gcd(step, n) != 1 {
			step++
		}
		for j := 0; j < k; j++ {
			i := (start + j*step) % n
			layer[i] *= float32(1.25 + x.rng.Float64())
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// exchangeRun is what one replay of the rounds measured.
type exchangeRun struct {
	cost
	roundMS, gatherMS, aggMS, downMS []float64
	sent, received                   map[transport.Kind]int64
	msgs                             int64
	loopBytes                        int64
	denseMsgs, deltaMsgs             int
	checked, exact                   int
}

// run plays the rounds: one goroutine is every device, one is the edge,
// and a device sends round t+1 only after its round-t downlink (a
// closed loop). tr is nil for timed runs.
func (x *exchange) run(ctx context.Context, tr *Tracer) (exchangeRun, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	mem := transport.NewMemory()
	mem.Register(edgeNode, 4*x.size.devices)
	for _, nm := range x.names {
		mem.Register(nm, 4)
	}
	var run exchangeRun
	edgeErr := make(chan error, 1)
	var err error
	run.cost, err = measure(func() error {
		// Whichever side fails first cancels the other, which would
		// otherwise wait for its messages forever.
		go func() {
			err := x.playEdge(ctx, mem, tr, &run)
			if err != nil {
				cancel()
			}
			edgeErr <- err
		}()
		err := x.playDevices(ctx, mem, tr, &run)
		if err != nil {
			cancel()
		}
		// The side that failed first has the cause; the other has only
		// the cancellation.
		if e := <-edgeErr; e != nil && (err == nil || errors.Is(err, context.Canceled)) {
			err = e
		}
		return err
	})
	st := mem.Stats()
	run.sent, run.received, run.msgs = st.BytesByKind(), st.ReceivedBytesByKind(), st.TotalMessages()
	run.loopBytes = sumKinds(run.sent, loopKinds...)
	return run, err
}

func (x *exchange) checkedRound(t int) bool {
	dense := x.size.denseRounds
	return t%x.size.checkEvery == 0 || t == dense-1 || t == dense || t == x.size.rounds-1
}

// codec is how round t's payloads travel.
func (x *exchange) codec(t int, tr *Tracer) loopCodec {
	shaped := t >= x.size.denseRounds
	return loopCodec{delta: shaped, entropy: shaped, tr: tr, weight: 1}
}

// playDevices is the generator side: drift, encode, send, then receive
// and decode every downlink, timing the whole round.
func (x *exchange) playDevices(ctx context.Context, mem *transport.Memory, tr *Tracer, run *exchangeRun) error {
	upPrev := make([][][]byte, x.size.devices)
	downShadow := make([][][]byte, x.size.devices)
	got := make([][][]float64, x.size.devices)
	for t := 0; t < x.size.rounds; t++ {
		codec := x.codec(t, tr)
		start := time.Now()
		root := tr.Begin(-1, "bench.device_round", 1)
		for d, nm := range x.names {
			_ = tr.Do(root, "bench.drift", 1, func() error { x.drift(d); return nil })
			kind, payload, raw, err := codec.encodeUp(root, d, t, x.state[d], &upPrev[d])
			if err != nil {
				return fmt.Errorf("device %d round %d: encode: %w", d, t, err)
			}
			err = tr.Do(root, "transport.Send", 1, func() error {
				return mem.Send(transport.Message{Kind: kind, From: nm, To: edgeNode, Round: t, Payload: payload, Raw: raw})
			})
			if err != nil {
				return err
			}
		}
		for d, nm := range x.names {
			var msg transport.Message
			err := tr.Do(root, "transport.Recv", 1, func() (err error) { msg, err = mem.Recv(ctx, nm); return err })
			if err != nil {
				return err
			}
			if got[d], _, err = codec.decodeDown(root, msg, &downShadow[d]); err != nil {
				return fmt.Errorf("device %d round %d: downlink: %w", d, t, err)
			}
		}
		tr.End(root)
		run.roundMS = append(run.roundMS, float64(time.Since(start).Nanoseconds())/1e6)
		if x.checkedRound(t) {
			run.checked++
			if x.downlinksExact(got) {
				run.exact++
			}
		}
	}
	return nil
}

// downlinksExact recomputes the round with aggregate.Combine from the
// uploads the devices sent and compares every decoded downlink with it
// bit for bit (through the same float32 narrowing the wire applies).
func (x *exchange) downlinksExact(got [][][]float64) bool {
	sets := make([]*importance.Set, x.size.devices)
	for d := range sets {
		sets[d] = &importance.Set{Layers: widen(x.state[d])}
	}
	want, err := aggregate.Combine(sets, x.sim)
	if err != nil {
		return false
	}
	for d := range want {
		if len(got[d]) != len(want[d].Layers) {
			return false
		}
		for l, layer := range want[d].Layers {
			if len(got[d][l]) != len(layer) {
				return false
			}
			for i, v := range layer {
				if math.Float64bits(got[d][l][i]) != math.Float64bits(float64(float32(v))) {
					return false
				}
			}
		}
	}
	return true
}

// playEdge is the system under test: per round a session gather that
// decodes and folds each upload as it arrives, the combiner's result,
// and one encoded downlink per device.
func (x *exchange) playEdge(ctx context.Context, mem *transport.Memory, tr *Tracer, run *exchangeRun) error {
	ses := transport.NewSession(edgeNode, mem)
	upShadow := make([][][]byte, x.size.devices)
	downPrev := make([][][]byte, x.size.devices)
	var prev []*importance.Set
	arena := &wire.Arena{AliasInput: true}
	for t := 0; t < x.size.rounds; t++ {
		codec := x.codec(t, tr)
		root := tr.Begin(-1, "bench.edge_round", 1)
		comb, err := aggregate.NewCombiner(x.sim)
		if err != nil {
			return err
		}
		var busy time.Duration
		gather := tr.Begin(root, "transport.Gather", 1)
		gres, err := ses.Gather(ctx, transport.GatherSpec{
			Round:  t,
			Kinds:  []transport.Kind{transport.KindImportanceSet, transport.KindImportanceDelta},
			Expect: x.names,
			Label:  fmt.Sprintf("replay round %d", t),
			OnMessage: func(msg transport.Message) error {
				began := time.Now()
				defer func() { busy += time.Since(began) }()
				if msg.Kind == transport.KindImportanceSet {
					run.denseMsgs++
				} else {
					run.deltaMsgs++
				}
				d, layers, err := codec.decodeUp(gather, msg, arena, func(d int) *[][]byte { return &upShadow[d] })
				if err != nil {
					return fmt.Errorf("%v from %s: %w", msg.Kind, msg.From, err)
				}
				return tr.Do(gather, "aggregate.Combiner.Add", 1, func() error {
					return comb.Add(d, &importance.Set{Layers: layers})
				})
			},
		})
		tr.End(gather)
		if err != nil {
			return err
		}
		began := time.Now()
		var combined []*importance.Set
		err = tr.Do(root, "aggregate.Combiner.Result", 1, func() (err error) { combined, _, err = comb.Result(prev); return err })
		if err != nil {
			return err
		}
		prev = combined
		busy += time.Since(began)

		began = time.Now()
		for d, nm := range x.names {
			kind, payload, raw, err := codec.encodeDown(root, t, combined[d].Layers, 4, t == x.size.rounds-1, &downPrev[d])
			if err != nil {
				return fmt.Errorf("round %d downlink %d: encode: %w", t, d, err)
			}
			err = tr.Do(root, "transport.Send", 1, func() error {
				return mem.Send(transport.Message{Kind: kind, From: edgeNode, To: nm, Round: t, Payload: payload, Raw: raw})
			})
			if err != nil {
				return err
			}
		}
		tr.End(root)
		run.gatherMS = append(run.gatherMS, float64(gres.Wall.Nanoseconds())/1e6)
		run.aggMS = append(run.aggMS, float64(busy.Nanoseconds())/1e6)
		run.downMS = append(run.downMS, float64(time.Since(began).Nanoseconds())/1e6)
	}
	return nil
}

// checkExchange counts one replay's operations: every device-round owes
// an upload and a downlink, sent bytes must equal received bytes per
// kind, and every checked round must match aggregate.Combine.
func checkExchange(c *checks, size exchangeSize, run exchangeRun) {
	want := size.devices * size.rounds
	c.attempted += want
	if got := run.denseMsgs + run.deltaMsgs; got != want {
		c.fail(want-got, "edge folded %d of %d uploads", got, want)
	}
	c.expect(len(run.roundMS) == size.rounds, "%d rounds completed, want %d", len(run.roundMS), size.rounds)
	for k, sent := range run.sent {
		c.expect(run.received[k] == sent, "kind %v: sent %d B, received %d B", k, sent, run.received[k])
	}
	c.attempted += run.checked
	if run.exact != run.checked {
		c.fail(run.checked-run.exact, "%d of %d checked rounds differ from aggregate.Combine", run.checked-run.exact, run.checked)
	}
}

// exchangeEndToEnd times exchange-replay with tracing off. Every repeat
// regenerates the inputs from the seed, so repeats must agree on bytes.
func exchangeEndToEnd(ctx context.Context, seed int64, size exchangeSize, seconds float64, c *checks) (map[string]float64, error) {
	var setups []float64
	var costs []cost
	setUp := func() error {
		return timeSetups(&setups, func() (func(), error) {
			_, err := buildExchange(seed, size)
			return func() {}, err
		})
	}
	if err := setUp(); err != nil {
		return nil, err
	}
	var first exchangeRun
	for n := 0; n < repeats(wReplay, seconds); n++ {
		x, err := buildExchange(seed, size)
		if err != nil {
			return nil, err
		}
		run, err := x.run(ctx, nil)
		if err == nil {
			err = setUp()
		}
		if err != nil {
			return nil, err
		}
		checkExchange(c, size, run)
		if n == 0 {
			first = run
		} else {
			c.expect(kindsEqual(first.sent, run.sent), "repeat: per-kind bytes differ: %v vs %v", first.sent, run.sent)
		}
		costs = append(costs, run.cost)
	}
	fmt.Printf("%s: %d repeats\n", wReplay, len(costs))
	values := costMetrics(setups, costs)
	values["wire_bytes_per_device"] = float64(totalBytes(first.sent)) / float64(size.devices)
	values["loop_bytes_per_device_round"] = float64(first.loopBytes) / float64(size.devices*size.rounds)
	values["accuracy_final"] = float64(first.exact) / float64(first.checked)
	return values, nil
}
