package importance

import (
	"math"
	"math/rand"
	"testing"

	"acme/internal/data"
	"acme/internal/nn"
)

func testClassifier(t *testing.T, rng *rand.Rand) *nn.BackboneClassifier {
	t.Helper()
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 12, Depth: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return nn.NewBackboneClassifier(bb, 5, rng)
}

func testDataset(rng *rand.Rand) *data.Dataset {
	spec := data.Spec{
		Name: "t", NumClasses: 5, NumSuper: 1, Dim: 16,
		SuperSep: 2, ClassSep: 1, WithinStd: 0.5,
	}
	gen, _ := data.NewGenerator(spec)
	return gen.Sample(40, nil, rng)
}

func TestAccumulateBackboneFillsImportances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := testClassifier(t, rng)
	ds := testDataset(rng)
	if err := AccumulateBackbone(c, ds, 20, rng); err != nil {
		t.Fatal(err)
	}
	var nonZero int
	for _, blk := range c.Backbone.Blocks {
		for _, v := range blk.Attn.HeadImportance {
			if v > 0 {
				nonZero++
			}
		}
		for _, v := range blk.FFN.NeuronImportance {
			if v > 0 {
				nonZero++
			}
		}
	}
	if nonZero == 0 {
		t.Fatal("no importances accumulated")
	}
	// Gradients must be cleared afterwards.
	for _, p := range c.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatal("gradients not cleared")
			}
		}
	}
	// Recording must be switched off again.
	if c.Backbone.Blocks[0].Attn.RecordImportance {
		t.Fatal("importance recording left enabled")
	}
}

func TestSetShapeAndAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := nn.NewLinear("l", 3, 2, rng)
	set := NewSet(l)
	if len(set.Layers) != 2 || len(set.Layers[0])+len(set.Layers[1]) != 3*2+2 {
		t.Fatalf("set shape %v, want 2 layers of 3·2 + 2 entries", set.Layers)
	}
	// Put a known gradient in and verify (g·v)².
	l.W.Value.Fill(2)
	l.W.Grad.Fill(3)
	l.B.Value.Fill(1)
	l.B.Grad.Fill(0)
	if err := set.Accumulate(l); err != nil {
		t.Fatal(err)
	}
	if got := set.Layers[0][0]; math.Abs(got-36) > 1e-12 { // (3·2)²
		t.Fatalf("Q = %v want 36", got)
	}
	if got := set.Layers[1][0]; got != 0 {
		t.Fatalf("zero-grad Q = %v", got)
	}
}

func TestSetAddScaled(t *testing.T) {
	c := &Set{Layers: [][]float64{{1, 2}}}
	b := &Set{Layers: [][]float64{{10, 20}}}
	if err := c.AddScaled(0.5, b); err != nil {
		t.Fatal(err)
	}
	if c.Layers[0][0] != 6 || c.Layers[0][1] != 12 {
		t.Fatalf("addscaled got %v", c.Layers[0])
	}
	bad := &Set{Layers: [][]float64{{1}}}
	if err := c.AddScaled(1, bad); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSetScale(t *testing.T) {
	s := &Set{Layers: [][]float64{{2, 4}, {6}}}
	s.Scale(0.5)
	if s.Layers[0][0] != 1 || s.Layers[1][0] != 3 {
		t.Fatalf("scale got %v", s.Layers)
	}
}

// TestImportanceIdentifiesCriticalHead builds a contrived attention
// layer where one head carries the entire signal and checks that
// head's importance dominates.
func TestImportanceIdentifiesCriticalHead(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := testClassifier(t, rng)
	ds := testDataset(rng)

	// Train briefly so gradients correlate with the task.
	opt := nn.NewAdam(1e-3)
	for e := 0; e < 3; e++ {
		if _, err := nn.TrainEpoch(c, opt, ds.X, ds.Y, 8, rng); err != nil {
			t.Fatal(err)
		}
	}
	if err := AccumulateBackbone(c, ds, 40, rng); err != nil {
		t.Fatal(err)
	}
	// Width-scale to half and verify masks keep the higher-importance
	// head in each block.
	for _, blk := range c.Backbone.Blocks {
		imp := blk.Attn.HeadImportance
		best := 0
		if imp[1] > imp[0] {
			best = 1
		}
		_ = best
	}
	if err := c.Backbone.ScaleWidth(0.5); err != nil {
		t.Fatal(err)
	}
	for l, blk := range c.Backbone.Blocks {
		if blk.Attn.ActiveHeads() != 1 {
			t.Fatalf("block %d kept %d heads, want 1", l, blk.Attn.ActiveHeads())
		}
		imp := blk.Attn.HeadImportance
		kept := 0
		if blk.Attn.HeadMask[1] {
			kept = 1
		}
		if imp[kept] < imp[1-kept] {
			t.Fatalf("block %d kept the less important head", l)
		}
	}
}

// params is a module of fixed parameters, whose Params allocates
// nothing.
type params []*nn.Param

func (p params) Params() []*nn.Param { return p }

// TestSetIsOneSlab: a set, fresh or zeroed, is three allocations
// whatever its layer count, and an append to one of its layers cannot
// run into the next.
func TestSetIsOneSlab(t *testing.T) {
	var m nn.Module = params(testClassifier(t, rand.New(rand.NewSource(1))).Params())
	src := NewSet(m)
	for i, l := range src.Layers {
		for j := range l {
			l[j] = float64(i + j + 1)
		}
	}
	for _, c := range []struct {
		name string
		make func() *Set
	}{
		{"NewSet", func() *Set { return NewSet(m) }},
		{"ZeroClone", src.ZeroClone},
	} {
		if allocs := testing.AllocsPerRun(10, func() { c.make() }); allocs != 3 {
			t.Errorf("%s: %v allocations for %d layers, want 3", c.name, allocs, len(src.Layers))
		}
		s := c.make()
		for i, l := range s.Layers {
			if len(l) != len(src.Layers[i]) || cap(l) != len(l) {
				t.Fatalf("%s: layer %d has length %d and capacity %d, want %d", c.name, i, len(l), cap(l), len(src.Layers[i]))
			}
			for j, v := range l {
				if v != 0 {
					t.Fatalf("%s: layer %d[%d] = %v, want 0", c.name, i, j, v)
				}
			}
		}
	}
}

// TestLeasedSetGivesBackOnce: a leased set is zero, shaped like its
// source and cut capacity-clamped from one slab; Release gives that slab
// back with the header, which the slab's next lease takes again, zeroed;
// a second Release does nothing, and neither a nil set nor an unleased
// one (ZeroClone, a decoded literal) is touched.
func TestLeasedSetGivesBackOnce(t *testing.T) {
	src := &Set{Layers: [][]float64{{1, 2, 3}, {4}, {5, 6, 7, 8, 9}}}
	lent := nn.Lent()
	s := src.LeaseZeroClone()
	if d := nn.Lent() - lent; d != 1 {
		t.Fatalf("a leased set holds %d slabs, want 1", d)
	}
	for i, l := range s.Layers {
		if len(l) != len(src.Layers[i]) || cap(l) != len(l) {
			t.Fatalf("layer %d has length %d and capacity %d, want %d", i, len(l), cap(l), len(src.Layers[i]))
		}
		for j, v := range l {
			if v != 0 {
				t.Fatalf("layer %d[%d] = %v, want 0", i, j, v)
			}
			l[j] = math.NaN()
		}
	}
	s.Release()
	s.Release()
	if d := nn.Lent() - lent; d != 0 {
		t.Fatalf("%d slabs out after two Releases, want 0", d)
	}
	again := src.LeaseZeroClone()
	if again != s {
		t.Error("a lease of given-back storage did not take the header left with it")
	}
	for i, l := range again.Layers {
		for j, v := range l {
			if v != 0 {
				t.Fatalf("a lease of given-back storage has layer %d[%d] = %v", i, j, v)
			}
		}
	}
	again.Release()
	var none *Set
	none.Release()
	for name, u := range map[string]*Set{"ZeroClone": src.ZeroClone(), "literal": src} {
		before := len(u.Layers)
		u.Release()
		if len(u.Layers) != before || nn.Lent() != lent {
			t.Errorf("Release touched an unleased %s set", name)
		}
	}
	if src.Layers[2][4] != 9 {
		t.Error("Release changed an unleased set's values")
	}
}
