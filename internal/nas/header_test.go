package nas

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"acme/internal/data"
	"acme/internal/importance"
	"acme/internal/nn"
	"acme/internal/tensor"
)

func testBackbone(t *testing.T, rng *rand.Rand) *nn.Backbone {
	t.Helper()
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 12, Depth: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return bb
}

func testHeaderConfig() HeaderConfig {
	return HeaderConfig{
		Blocks: 3, Repeats: 2, DModel: 8, Hidden: 10, NumClasses: 5,
		TrainBackbone: true,
	}
}

func sampleInput(rng *rand.Rand) []float64 {
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestSpaceSizeEq14(t *testing.T) {
	// |B̂₁:B| = Π (b+1)²·|Ô|² with the paper's 1-based b, i.e.
	// (2·3·...·(B+1))² · 49^B.
	want := math.Pow(2*3*4, 2) * math.Pow(49, 3)
	if got := SpaceSize(3); math.Abs(got-want) > 1 {
		t.Fatalf("SpaceSize(3) = %g want %g", got, want)
	}
}

func TestRandomArchitectureValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandomArchitecture(1+rng.Intn(6), rng)
		return a.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArchitectureValidateRejectsBadInputs(t *testing.T) {
	a := Architecture{Blocks: []BlockGene{{In1: 5, In2: 0, Op1: OpConv3, Op2: OpConv3}}}
	if a.Validate() == nil {
		t.Fatal("out-of-range input accepted")
	}
	b := Architecture{Blocks: []BlockGene{{In1: 0, In2: 0, Op1: OpKind(99), Op2: OpConv3}}}
	if b.Validate() == nil {
		t.Fatal("bad op kind accepted")
	}
	if (Architecture{}).Validate() == nil {
		t.Fatal("empty architecture accepted")
	}
}

func TestHeaderForwardShapeAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bb := testBackbone(t, rng)
	arch := RandomArchitecture(3, rng)
	h, err := NewHeaderModel(testHeaderConfig(), arch, bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := sampleInput(rng)
	logits1, err := h.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(logits1) != 5 {
		t.Fatalf("got %d logits", len(logits1))
	}
	logits2, _ := h.Forward(x)
	for i := range logits1 {
		if logits1[i] != logits2[i] {
			t.Fatal("forward is not deterministic")
		}
	}
}

// TestHeaderGradients numerically checks the full header+backbone
// backward pass.
func TestHeaderGradients(t *testing.T) {
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
	x := sampleInput(rng)
	label := 3

	loss := func() float64 {
		logits, err := h.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		v := nn.CrossEntropy(make([]float64, len(logits)), logits, label)
		return v
	}
	nn.ZeroGrads(h)
	nn.ZeroGrads(bb)
	logits, err := h.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	dl := make([]float64, len(logits))
	nn.CrossEntropy(dl, logits, label)
	h.Backward(dl)

	check := func(params []*nn.Param) {
		for _, p := range params {
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
				if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(numeric)) {
					t.Errorf("%s[%d]: analytic %.6g numeric %.6g", p.Name, i, analytic, numeric)
				}
			}
		}
	}
	check(h.Params())
	check(bb.Params()) // TrainBackbone: gradients must flow into the backbone
}

func TestHeaderFrozenBackboneGetsNoGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bb := testBackbone(t, rng)
	cfg := testHeaderConfig()
	cfg.TrainBackbone = false
	h, err := NewHeaderModel(cfg, RandomArchitecture(3, rng), bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	nn.ZeroGrads(bb)
	logits, err := h.Forward(sampleInput(rng))
	if err != nil {
		t.Fatal(err)
	}
	dl := make([]float64, len(logits))
	nn.CrossEntropy(dl, logits, 0)
	h.Backward(dl)
	for _, p := range bb.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatalf("frozen backbone received gradient in %s", p.Name)
			}
		}
	}
}

func TestHeaderCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bb := testBackbone(t, rng)
	h, err := NewHeaderModel(testHeaderConfig(), RandomArchitecture(3, rng), bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	clone := h.Clone(bb)
	x := sampleInput(rng)
	a, _ := h.Forward(x)
	b, _ := clone.Forward(x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("clone forward differs")
		}
	}
	// Mutating the clone must not affect the original.
	clone.FC1.W.Value.Fill(0)
	c, _ := h.Forward(x)
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("clone shares parameter storage")
		}
	}
}

// TestCloneKeepsParamNames: a clone names its ops after their bank
// positions, as the header it copies does, so a clone of a clone reports
// the same parameter names instead of stacking suffixes.
func TestCloneKeepsParamNames(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bb := testBackbone(t, rng)
	arch := Architecture{Blocks: []BlockGene{
		{In1: 0, In2: 1, Op1: OpConv3, Op2: OpMHSA},
		{In1: 2, In2: 0, Op1: OpMLPBlock, Op2: OpLayerNorm},
		{In1: 3, In2: 1, Op1: OpConv1, Op2: OpMaxPool},
	}}
	h, err := NewHeaderModel(testHeaderConfig(), arch, bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	names := func(h *HeaderModel) []string {
		var out []string
		for _, p := range h.Params() {
			out = append(out, p.Name)
		}
		return out
	}
	want := names(h)
	clone := h.Clone(bb)
	for i, got := range [][]string{names(clone), names(clone.Clone(bb))} {
		if !slices.Equal(got, want) {
			t.Fatalf("clone %d names its params\n%q\nwant\n%q", i+1, got, want)
		}
	}
}

func TestOpBankSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bank := NewOpBank(8, rng)
	op1 := bank.Get(0, 1, 0, OpConv3)
	op2 := bank.Get(0, 1, 0, OpConv3)
	if op1 != op2 {
		t.Fatal("same position+kind must return the same instance")
	}
	op3 := bank.Get(0, 1, 1, OpConv3)
	if op1 == op3 {
		t.Fatal("different slot must get its own instance")
	}
	if len(bank.Params()) == 0 {
		t.Fatal("bank has no params after conv creation")
	}
}

func TestComputeImportanceSetAndPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	bb := testBackbone(t, rng)
	cfg := testHeaderConfig()
	cfg.TrainBackbone = false
	arch := Architecture{Blocks: []BlockGene{
		{In1: 0, In2: 1, Op1: OpConv3, Op2: OpIdentity},
		{In1: 2, In2: 0, Op1: OpConv1, Op2: OpAvgPool},
		{In1: 3, In2: 1, Op1: OpIdentity, Op2: OpMaxPool},
	}}
	h, err := NewHeaderModel(cfg, arch, bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := data.Spec{Name: "t", NumClasses: 5, NumSuper: 1, Dim: 16, SuperSep: 2, ClassSep: 1, WithinStd: 0.5}
	gen, err := data.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	local := gen.Sample(40, nil, rng)

	acc := importance.NewAccumulator()
	if _, err := acc.FoldBatches(h, local, 8, 4, rng); err != nil {
		t.Fatal(err)
	}
	set, err := acc.Average()
	if err != nil {
		t.Fatal(err)
	}
	var nonZero int
	for _, l := range set.Layers {
		for _, v := range l {
			if v > 0 {
				nonZero++
			}
		}
	}
	if nonZero == 0 {
		t.Fatal("empty or all-zero importance set")
	}

	before := h.ActiveParamCount()
	if err := h.ApplyImportance(set, 6); err != nil {
		t.Fatal(err)
	}
	after := h.ActiveParamCount()
	if after >= before {
		t.Fatalf("pruning did not reduce params: %d → %d", before, after)
	}
	// The pruned header must still produce finite logits.
	logits, err := h.Forward(sampleInput(rng))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range logits {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("pruned header produced non-finite logits")
		}
	}
	// Re-applying with 0 discards must fully restore masks.
	if err := h.ApplyImportance(set, 0); err != nil {
		t.Fatal(err)
	}
	if h.ActiveParamCount() != before {
		t.Fatal("zero-discard apply did not restore masks")
	}
}

func TestTrainLocalImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bb := testBackbone(t, rng)
	cfg := testHeaderConfig()
	cfg.TrainBackbone = false
	h, err := NewHeaderModel(cfg, RandomArchitecture(3, rng), bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	spec := data.Spec{Name: "t2", NumClasses: 5, NumSuper: 1, Dim: 16, SuperSep: 3, ClassSep: 1, WithinStd: 0.4}
	gen, err := data.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	ds := gen.Sample(80, nil, rng)
	before, err := nn.Evaluate(h, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.TrainLocal(ds, 4, 16, 3e-3, rng); err != nil {
		t.Fatal(err)
	}
	after, err := nn.Evaluate(h, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("training did not improve accuracy: %.3f → %.3f", before, after)
	}
}

func TestFixedHeadersForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, kind := range AllFixedHeaderKinds() {
		bb := testBackbone(t, rng)
		h, err := NewFixedHeader(kind, bb, 5, 10, rng)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		x := sampleInput(rng)
		logits, err := h.Forward(x)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(logits) != 5 {
			t.Fatalf("%v: %d logits", kind, len(logits))
		}
		dl := make([]float64, len(logits))
		nn.CrossEntropy(dl, logits, 1)
		nn.ZeroGrads(h)
		h.Backward(dl)
		var gradNorm float64
		for _, p := range h.Params() {
			gradNorm += tensor.Dot(p.Grad.Data, p.Grad.Data)
		}
		if gradNorm == 0 {
			t.Fatalf("%v: no gradients", kind)
		}
	}
}

func TestSearchSpaceSizeGrowsWithBlocks(t *testing.T) {
	if SpaceSize(2) >= SpaceSize(3) {
		t.Fatal("search space must grow with B")
	}
}

// Params returns all instantiated bank parameters in deterministic
// order.
func (bk *OpBank) Params() []*nn.Param {
	keys := make([]bankKey, 0, len(bk.ops))
	for k := range bk.ops {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.U != b.U {
			return a.U < b.U
		}
		if a.B != b.B {
			return a.B < b.B
		}
		if a.Slot != b.Slot {
			return a.Slot < b.Slot
		}
		return a.Kind < b.Kind
	})
	var ps []*nn.Param
	for _, k := range keys {
		ps = append(ps, bk.ops[k].Params()...)
	}
	return ps
}
