package nas

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"acme/internal/data"
	"acme/internal/importance"
	"acme/internal/nn"
)

// deviceArch is the header shape the standing benchmark replays: four
// blocks, three of whose four convolutions read the backbone directly.
var deviceArch = Architecture{Blocks: []BlockGene{
	{In1: 0, In2: 1, Op1: OpConv5, Op2: OpAvgPool},
	{In1: 1, In2: 2, Op1: OpConv3, Op2: OpIdentity},
	{In1: 0, In2: 3, Op1: OpConv5, Op2: OpMaxPool},
	{In1: 2, In2: 4, Op1: OpConv1, Op2: OpDownsample},
}}

// deviceFixture builds a frozen-backbone header at the default device
// sizes (d=32, 9 tokens, 4 blocks) with n local and n/4 test samples,
// every draw from seed.
func deviceFixture(tb testing.TB, seed int64, n int) (*HeaderModel, *data.Dataset, *data.Dataset) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: 64, NumPatches: 8, DModel: 32, NumHeads: 4, Hidden: 64, Depth: 3,
	}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := HeaderConfig{Blocks: 4, Repeats: 1, DModel: 32, Hidden: 32, NumClasses: 10}
	h, err := NewHeaderModel(cfg, deviceArch, bb, rng)
	if err != nil {
		tb.Fatal(err)
	}
	gen, err := data.NewGenerator(data.Spec{
		Name: "dev", NumClasses: 10, NumSuper: 2, Dim: 64, SuperSep: 2, ClassSep: 1, WithinStd: 0.5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return h, gen.Sample(n, nil, rng), gen.Sample(n/4, nil, rng)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// gradHash folds every gradient bit of params into one number.
func gradHash(params []*nn.Param) uint64 {
	hash := fnv.New64a()
	var buf [8]byte
	for _, p := range params {
		for _, g := range p.Grad.Data {
			bits := math.Float64bits(g)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			hash.Write(buf[:])
		}
	}
	return hash.Sum64()
}

// TestFrozenPathMatchesRawPath drives a device's whole Phase 2-2 life —
// 2 refine epochs, then 3 rounds of fold 8 batches → prune → train 1
// epoch — once through HeaderModel on raw samples (the reference) and
// once through FrozenHeader on Featurize rows, from the same seed.
// Every importance layer of every round, every final parameter and
// both evaluations must agree to the bit.
func TestFrozenPathMatchesRawPath(t *testing.T) {
	type outcome struct {
		sets     []*importance.Set
		params   [][]float64
		coarse   float64
		accuracy float64
	}
	run := func(frozen bool) outcome {
		h, local, test := deviceFixture(t, 11, 128)
		var c nn.Classifier = h
		trainLocal := h.TrainLocal
		if frozen {
			fh, err := h.Frozen(h.Backbone.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			if local, err = h.Featurize(local); err != nil {
				t.Fatal(err)
			}
			if test, err = h.Featurize(test); err != nil {
				t.Fatal(err)
			}
			c, trainLocal = fh, fh.TrainLocal
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(5))
		var out outcome
		var err error
		must(trainLocal(local, 2, 16, 2e-3, rng))
		out.coarse, err = nn.Evaluate(c, test.X, test.Y)
		must(err)
		acc := importance.NewAccumulator()
		for round := 0; round < 3; round++ {
			acc.Reset()
			folded, err := acc.FoldBatches(c, local, 16, 8, rng)
			must(err)
			if folded != 8 {
				t.Fatalf("folded %d batches, want 8", folded)
			}
			set, err := acc.Average()
			must(err)
			out.sets = append(out.sets, set)
			must(h.ApplyImportance(set, 4*(round+1)))
			must(trainLocal(local, 1, 16, 2e-3, rng))
		}
		if h.ActiveParamCount() >= nn.CountParams(h) {
			t.Fatal("no unit was discarded: the masked path went untested")
		}
		out.accuracy, err = nn.Evaluate(c, test.X, test.Y)
		must(err)
		for _, p := range h.Params() {
			out.params = append(out.params, p.Value.Data)
		}
		return out
	}
	raw, frozen := run(false), run(true)
	if raw.coarse != frozen.coarse || raw.accuracy != frozen.accuracy {
		t.Errorf("accuracy raw %v → %v, frozen %v → %v", raw.coarse, raw.accuracy, frozen.coarse, frozen.accuracy)
	}
	for r := range raw.sets {
		for l := range raw.sets[r].Layers {
			if !bitsEqual(raw.sets[r].Layers[l], frozen.sets[r].Layers[l]) {
				t.Errorf("round %d importance layer %d differs", r, l)
			}
		}
	}
	for i := range raw.params {
		if !bitsEqual(raw.params[i], frozen.params[i]) {
			t.Errorf("parameter tensor %d differs", i)
		}
	}
}

// TestFrozenHeaderRejectsMisuse: the view exists only over a frozen
// backbone and only over feature rows.
func TestFrozenHeaderRejectsMisuse(t *testing.T) {
	h, local, _ := deviceFixture(t, 12, 4)
	fh, err := h.Frozen(h.Backbone.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Forward(local.X[0]); err == nil {
		t.Error("a raw sample passed for a feature row")
	}
	h.Cfg.TrainBackbone = true
	if _, err := h.Frozen(h.Backbone.Cfg); err == nil {
		t.Error("frozen view of a training backbone")
	}
	if _, err := h.Featurize(local); err == nil {
		t.Error("features of a training backbone")
	}
}

// TestDeadInputSkipMatchesFullBackward: with the backbone frozen, ops
// fed by a backbone representation skip their input gradient. Every
// header parameter gradient must still equal, bit for bit, the one the
// full backward (TrainBackbone on) computes — for every op kind on
// nodes 0 and 1, with and without channel masks. Repeats = 2 makes
// module 0's parameters reachable only through module 1's input
// gradient, which therefore must survive.
func TestDeadInputSkipMatchesFullBackward(t *testing.T) {
	for _, kind := range ExtendedOpSet() {
		for _, masked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/masked=%v", kind, masked), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(kind)))
				bb := testBackbone(t, rng)
				arch := Architecture{Blocks: []BlockGene{
					{In1: 0, In2: 1, Op1: kind, Op2: kind},
					{In1: 2, In2: 1, Op1: OpConv3, Op2: kind},
					{In1: 0, In2: 3, Op1: kind, Op2: OpConv1},
				}}
				h, err := NewHeaderModel(testHeaderConfig(), arch, bb, rng)
				if err != nil {
					t.Fatal(err)
				}
				if masked {
					scores := importance.NewSet(h)
					for _, l := range scores.Layers {
						for i := range l {
							l[i] = rng.Float64()
						}
					}
					if err := h.ApplyImportance(scores, 12); err != nil {
						t.Fatal(err)
					}
				}
				x := sampleInput(rng)
				grads := func(trainBackbone bool) [][]float64 {
					h.Cfg.TrainBackbone = trainBackbone
					nn.ZeroGrads(h)
					logits, err := h.Forward(x)
					if err != nil {
						t.Fatal(err)
					}
					dl := make([]float64, len(logits))
					nn.CrossEntropy(dl, logits, 2)
					h.Backward(dl)
					var out [][]float64
					for _, p := range h.Params() {
						out = append(out, append([]float64(nil), p.Grad.Data...))
					}
					return out
				}
				full, skipped := grads(true), grads(false)
				for i, p := range h.Params() {
					if !bitsEqual(full[i], skipped[i]) {
						t.Errorf("%s: gradient differs from the full backward", p.Name)
					}
				}
				// Block 1 slot 0 of module 0 is a conv3 over a block
				// output: its weights get gradient only via module 1.
				var norm float64
				for _, g := range skipped[indexOfParam(t, h, "bank.u0.b1.s0.conv3.w")] {
					norm += g * g
				}
				if norm == 0 {
					t.Error("module 0 received no gradient: module 1's input gradient was dropped")
				}
			})
		}
	}
}

func indexOfParam(t *testing.T, h *HeaderModel, name string) int {
	t.Helper()
	for i, p := range h.Params() {
		if p.Name == name {
			return i
		}
	}
	t.Fatalf("no parameter %q", name)
	return -1
}

// TestTrainBackbonePathPinned: with TrainBackbone on nothing is
// skipped. The hash of every header and backbone gradient bit for one
// seeded sample is pinned to the value the code computed before the
// frozen fast path existed.
func TestTrainBackbonePathPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bb := testBackbone(t, rng)
	arch := Architecture{Blocks: []BlockGene{
		{In1: 0, In2: 1, Op1: OpConv3, Op2: OpAvgPool},
		{In1: 2, In2: 0, Op1: OpMaxPool, Op2: OpConv1},
		{In1: 3, In2: 2, Op1: OpIdentity, Op2: OpDownsample},
	}}
	h, err := NewHeaderModel(testHeaderConfig(), arch, bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(h)
	nn.ZeroGrads(bb)
	// Two samples, so the reused buffers are exercised, not just filled.
	for label := 0; label < 2; label++ {
		logits, err := h.Forward(sampleInput(rng))
		if err != nil {
			t.Fatal(err)
		}
		dl := make([]float64, len(logits))
		nn.CrossEntropy(dl, logits, label)
		h.Backward(dl)
	}
	const want uint64 = 0x15af7d5c32e03439
	if got := gradHash(h.AllParams()); got != want {
		t.Fatalf("gradient hash %#x, want %#x", got, want)
	}
}

// TestFrozenSteadyStateAllocs guards the allocation-free steady state:
// once the buffers exist, a forward+backward over a feature row makes
// only the loss gradient (TestTrainLocalBorrowsItsMemory bounds a
// TrainLocal epoch, which borrows that too), and an nn.Evaluate, whose
// buffers are borrowed for the call, allocates nothing at all.
func TestFrozenSteadyStateAllocs(t *testing.T) {
	h, local, _ := deviceFixture(t, 13, 128)
	fh, err := h.Frozen(h.Backbone.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := h.Featurize(local)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		logits, err := fh.Forward(feats.X[0])
		if err != nil {
			t.Fatal(err)
		}
		dl := make([]float64, len(logits))
		nn.CrossEntropy(dl, logits, feats.Y[0])
		fh.Backward(dl)
	}
	step()
	if got := testing.AllocsPerRun(20, step); got > 2 {
		t.Errorf("forward+backward allocates %.0f objects per sample, want at most 2", got)
	}

	if raceDetectorEnabled {
		return // the race detector's sync.Pool drops pooled objects on purpose
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eval := func() {
		if _, err := nn.Evaluate(fh, feats.X, feats.Y); err != nil {
			t.Fatal(err)
		}
	}
	eval()
	if got := testing.AllocsPerRun(5, eval); got != 0 {
		t.Errorf("Evaluate over %d rows allocates %.0f objects, want none", feats.Len(), got)
	}
}

// The two device-side hot loops, over raw samples (a backbone pass per
// sample, as the edge and the reference path run them) and over
// feature rows (as a device runs them).
func BenchmarkHeaderTrainLocal(b *testing.B) {
	benchRawAndFeaturized(b, func(h *HeaderModel, fh *FrozenHeader, raw, feats *data.Dataset, rng *rand.Rand) (func() error, func() error) {
		return func() error { return h.TrainLocal(raw, 1, 16, 2e-3, rng) },
			func() error { return fh.TrainLocal(feats, 1, 16, 2e-3, rng) }
	})
}

func BenchmarkHeaderFold(b *testing.B) {
	benchRawAndFeaturized(b, func(h *HeaderModel, fh *FrozenHeader, raw, feats *data.Dataset, rng *rand.Rand) (func() error, func() error) {
		acc := importance.NewAccumulator()
		fold := func(c nn.Classifier, ds *data.Dataset) func() error {
			return func() error {
				acc.Reset()
				_, err := acc.FoldBatches(c, ds, 16, 8, rng)
				return err
			}
		}
		return fold(h, raw), fold(fh, feats)
	})
}

func benchRawAndFeaturized(b *testing.B, ops func(h *HeaderModel, fh *FrozenHeader, raw, feats *data.Dataset, rng *rand.Rand) (rawOp, featOp func() error)) {
	h, local, _ := deviceFixture(b, 1, 128)
	fh, err := h.Frozen(h.Backbone.Cfg)
	if err != nil {
		b.Fatal(err)
	}
	feats, err := h.Featurize(local)
	if err != nil {
		b.Fatal(err)
	}
	rawOp, featOp := ops(h, fh, local, feats, rand.New(rand.NewSource(1)))
	for _, sub := range []struct {
		name string
		op   func() error
	}{{"raw", rawOp}, {"featurized", featOp}} {
		op := sub.op
		b.Run(sub.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
