package nas

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"acme/internal/data"
	"acme/internal/nn"
)

func searchFixture(t *testing.T, seed int64) (*Searcher, SearchConfig) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := data.Spec{Name: "s", NumClasses: 6, NumSuper: 2, Dim: 16, SuperSep: 3, ClassSep: 1, WithinStd: 0.5}
	gen, err := data.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	train := gen.Sample(120, nil, rng)
	val := gen.Sample(48, nil, rand.New(rand.NewSource(seed+1)))
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 12, Depth: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSearchConfig()
	cfg.Blocks = 2
	cfg.Hidden = 10
	cfg.Epochs = 1
	cfg.ChildBatches = 2
	cfg.ControllerSamples = 2
	cfg.ControllerUpdates = 1
	cfg.FinalCandidates = 2
	cfg.RewardProbe = 16
	s, err := NewSearcher(cfg, bb, spec.NumClasses, train, val, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		t.Fatal(err)
	}
	return s, cfg
}

func TestSearchReturnsValidArchitecture(t *testing.T) {
	s, cfg := searchFixture(t, 1)
	arch, reward, err := s.Search()
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(arch.Blocks) != cfg.Blocks {
		t.Fatalf("got %d blocks", len(arch.Blocks))
	}
	if reward < 0 || reward > 1 {
		t.Fatalf("reward %v outside [0,1]", reward)
	}
}

func TestSearchDeterministicGivenSeed(t *testing.T) {
	s1, _ := searchFixture(t, 7)
	a1, r1, err := s1.Search()
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := searchFixture(t, 7)
	a2, r2, err := s2.Search()
	if err != nil {
		t.Fatal(err)
	}
	if a1.String() != a2.String() || r1 != r2 {
		t.Fatalf("search not deterministic: %v (%v) vs %v (%v)", a1, r1, a2, r2)
	}
}

// TestSearchRewardPinned pins a search whose backbone trains between
// reward rounds — two epochs of shared steps and controller updates,
// rewards over a probe smaller than the validation set — to the
// architecture, best reward and final parameters it produced when every
// reward ran the backbone over its probe.
func TestSearchRewardPinned(t *testing.T) {
	s, _ := searchFixture(t, 21)
	s.Cfg.Epochs = 2
	s.Cfg.ControllerUpdates = 2
	if !s.Cfg.TrainBackbone || s.val.Len() <= s.Cfg.RewardProbe {
		t.Fatal("fixture must train the backbone and probe a subset of the validation set")
	}
	arch, best, err := s.Search()
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.BuildFinal(arch)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, p := range final.AllParams() {
		for _, v := range p.Value.Data {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	const (
		wantArch   = "arch[b0(1,0,avgpool,maxpool) b1(2,1,conv1,downsample)]"
		wantBest   = 0x3fe2000000000000
		wantParams = 0x492429c992b391e3
	)
	if arch.String() != wantArch || math.Float64bits(best) != wantBest || h.Sum64() != wantParams {
		t.Fatalf("search gave %q, best %#x, params %#x; want %q, %#x, %#x",
			arch.String(), math.Float64bits(best), h.Sum64(), wantArch, uint64(wantBest), uint64(wantParams))
	}

	// Over the whole validation set (no probe draw), a reward read from
	// cached rows equals nn.Evaluate over the raw samples, and a shared
	// step that trains the backbone leaves no cached row behind.
	s.Cfg.RewardProbe = 0
	child, err := s.buildChild(arch)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := s.EvaluateArch(arch)
		if err != nil {
			t.Fatal(err)
		}
		want, err := nn.Evaluate(child, s.val.X, s.val.Y)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pass %d: cached reward %v, raw %v", pass, got, want)
		}
		for i, row := range s.valRows {
			if row == nil {
				t.Fatalf("pass %d: validation row %d not cached", pass, i)
			}
		}
		if err := s.trainSharedStep(); err != nil {
			t.Fatal(err)
		}
		for i, row := range s.valRows {
			if row != nil {
				t.Fatalf("pass %d: validation row %d survived a backbone step", pass, i)
			}
		}
	}
}

func TestBuildFinalIndependentOfBank(t *testing.T) {
	s, _ := searchFixture(t, 3)
	arch, _, err := s.Search()
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.BuildFinal(arch)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	rng := rand.New(rand.NewSource(4))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	before, err := final.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), before...)
	// Mutate bank weights; the materialized header must not change.
	for _, p := range s.Bank.Params() {
		p.Value.Fill(0)
	}
	s.fc1.W.Value.Fill(0)
	after, err := final.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if snapshot[i] != after[i] {
			t.Fatal("materialized header aliases the shared bank")
		}
	}
}

func TestEvaluateArchBounds(t *testing.T) {
	s, _ := searchFixture(t, 5)
	acc, err := s.EvaluateArch(RandomArchitecture(2, rand.New(rand.NewSource(6))))
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %v", acc)
	}
}

func TestNewSearcherRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 12, Depth: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSearchConfig()
	cfg.Blocks = 0
	if _, err := NewSearcher(cfg, bb, 4, nil, nil, rng); err == nil {
		t.Fatal("zero blocks accepted")
	}
}

// TestExtendedOpSetSearch runs the searcher over the full Fig. 5
// operation options (MHSA, LayerNorm, MLP included) and checks the
// winning header trains and backpropagates correctly.
func TestExtendedOpSetSearch(t *testing.T) {
	s, _ := searchFixture(t, 11)
	s.Cfg.Ops = ExtendedOpSet()
	s.Controller = NewControllerWithOps(s.Cfg.Blocks, 48, s.Cfg.ControllerLR, ExtendedOpSet(), rand.New(rand.NewSource(12)))
	arch, _, err := s.Search()
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Validate(); err != nil {
		t.Fatal(err)
	}
	header, err := s.BuildFinal(arch)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	rng := rand.New(rand.NewSource(13))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	logits, err := header.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	dl := make([]float64, len(logits))
	nn.CrossEntropy(dl, logits, 0)
	nn.ZeroGrads(header)
	header.Backward(dl) // must not panic on extended op types
}

// TestExtendedOpSetGradients numerically checks a header containing the
// extended parametric ops.
func TestExtendedOpSetGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 12, Depth: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	arch := Architecture{Blocks: []BlockGene{
		{In1: 0, In2: 1, Op1: OpMHSA, Op2: OpLayerNorm},
		{In1: 2, In2: 0, Op1: OpMLPBlock, Op2: OpConv3},
	}}
	cfg := HeaderConfig{Blocks: 2, Repeats: 1, DModel: 8, Hidden: 10, NumClasses: 4, TrainBackbone: false}
	h, err := NewHeaderModel(cfg, arch, bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		logits, err := h.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		v := nn.CrossEntropy(make([]float64, len(logits)), logits, 2)
		return v
	}
	nn.ZeroGrads(h)
	logits, err := h.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	dl := make([]float64, len(logits))
	nn.CrossEntropy(dl, logits, 2)
	h.Backward(dl)
	for _, p := range h.Params() {
		n := p.NumParams()
		for c := 0; c < 3 && c < n; c++ {
			i := rng.Intn(n)
			analytic := p.Grad.Data[i]
			const eps = 1e-5
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := loss()
			p.Value.Data[i] = orig - eps
			lm := loss()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if diff := analytic - numeric; diff > 1e-4*(1+numeric) || diff < -1e-4*(1+numeric) {
				t.Errorf("%s[%d]: analytic %.6g numeric %.6g", p.Name, i, analytic, numeric)
			}
		}
	}
}
