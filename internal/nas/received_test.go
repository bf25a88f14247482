package nas

import (
	"math"
	"math/rand"
	"testing"

	"acme/internal/data"
	"acme/internal/nn"
	"acme/internal/tensor"
)

// requireSameParams: same shapes and value bits, in order. Names are
// not compared: a cloned op is named after its source's first parameter
// ("….conv3.w.w"), a quirk every package on the wire already carries.
func requireSameParams(t *testing.T, want, got []*nn.Param) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%d params, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Value.Rows != w.Value.Rows || g.Value.Cols != w.Value.Cols {
			t.Fatalf("param %d (%s) is %dx%d, want %dx%d", i, w.Name, g.Value.Rows, g.Value.Cols, w.Value.Rows, w.Value.Cols)
		}
		for k, v := range w.Value.Data {
			if math.Float64bits(g.Value.Data[k]) != math.Float64bits(v) {
				t.Fatalf("param %s entry %d: %v, want %v", w.Name, k, g.Value.Data[k], v)
			}
		}
	}
}

// TestHeaderCloneIsBitExact clones a header that uses every parametric
// operation of the search space: the copy has the source's parameters and masks bit for
// bit, shares no storage with it, and computes the same logits.
func TestHeaderCloneIsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	bb := testBackbone(t, rng)
	arch := Architecture{Blocks: []BlockGene{
		{In1: 0, In2: 1, Op1: OpConv3, Op2: OpMHSA},
		{In1: 2, In2: 0, Op1: OpMLPBlock, Op2: OpConv1},
		{In1: 3, In2: 2, Op1: OpLayerNorm, Op2: OpConv5},
	}}
	cfg := testHeaderConfig()
	cfg.TrainBackbone = false
	h, err := NewHeaderModel(cfg, arch, bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Prune a little so the masks are not all-true.
	h.HiddenMask[1] = false
	h.opMasks[0][0][0] = fullMask(cfg.DModel)
	h.opMasks[0][0][0][2] = false
	h.indexMasks()

	clone := h.Clone(bb)
	requireSameParams(t, h.Params(), clone.Params())
	want, got := h.ExportMasks(), clone.ExportMasks()
	for i := range want.Hidden {
		if want.Hidden[i] != got.Hidden[i] {
			t.Fatalf("hidden mask %d differs", i)
		}
	}
	for u := range want.Ops {
		for b := range want.Ops[u] {
			for s := 0; s < 2; s++ {
				w, g := want.Ops[u][b][s], got.Ops[u][b][s]
				if (w == nil) != (g == nil) || len(w) != len(g) {
					t.Fatalf("op mask %d/%d/%d presence differs", u, b, s)
				}
				for i := range w {
					if w[i] != g[i] {
						t.Fatalf("op mask %d/%d/%d entry %d differs", u, b, s, i)
					}
				}
			}
		}
	}
	if clone.ActiveParamCount() != h.ActiveParamCount() {
		t.Fatal("clone differs in active size")
	}
	x := sampleInput(rng)
	a, err := h.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	a = append([]float64(nil), a...)
	b, err := clone.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("logit %d: clone %v, source %v", i, b[i], a[i])
		}
	}
	for _, p := range clone.Params() {
		p.Value.Fill(0)
	}
	for _, p := range h.Params() {
		if tensor.Dot(p.Value.Data, p.Value.Data) == 0 && p.Value.Rows > 1 {
			t.Fatalf("clone shares %s with its source", p.Name)
		}
	}
}

// TestFeaturizeRowAllocatesNothing: Featurize pays for its output (the
// dataset, its row index, one slab) and nothing per row.
func TestFeaturizeRowAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	bb := testBackbone(t, rng)
	cfg := testHeaderConfig()
	cfg.TrainBackbone = false
	h, err := NewHeaderModel(cfg, RandomArchitecture(3, rng), bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	set := func(n int) *data.Dataset {
		ds := &data.Dataset{Name: "t", NumClasses: 5, Dim: 16, X: make([][]float64, n), Y: make([]int, n)}
		for i := range ds.X {
			ds.X[i] = sampleInput(rng)
		}
		return ds
	}
	small, large := set(4), set(40)
	featurize := func(ds *data.Dataset) func() {
		return func() {
			if _, err := h.Featurize(ds); err != nil {
				t.Fatal(err)
			}
		}
	}
	featurize(small)()
	a, b := testing.AllocsPerRun(10, featurize(small)), testing.AllocsPerRun(10, featurize(large))
	if a != b || a > 3 {
		t.Fatalf("Featurize allocates %v objects for 4 rows and %v for 40, want the same 3 or fewer", a, b)
	}
}
