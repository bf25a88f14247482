package nas

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"acme/internal/importance"
	"acme/internal/nn"
)

// refApplyImportance is ApplyImportance as it ranked before its units
// were pooled: a map from parameter to layer, a closure per unit and
// sort.SliceStable.
func refApplyImportance(h *HeaderModel, set *importance.Set, discardUnits int) {
	params := h.Params()
	defer h.indexMasks()
	for u := range h.opMasks {
		for b := range h.opMasks[u] {
			h.opMasks[u][b][0] = nil
			h.opMasks[u][b][1] = nil
		}
	}
	for j := range h.HiddenMask {
		h.HiddenMask[j] = true
	}
	if discardUnits <= 0 {
		return
	}
	layerIdx := make(map[*nn.Param]int, len(params))
	for i, p := range params {
		layerIdx[p] = i
	}
	type unit struct {
		score float64
		apply func()
	}
	var units []unit
	seen := make(map[*nn.Param]bool)
	for u := range h.ops {
		for b := range h.ops[u] {
			for s := 0; s < 2; s++ {
				conv, ok := h.ops[u][b][s].(*nn.Conv1D)
				if !ok || seen[conv.W] {
					continue
				}
				seen[conv.W] = true
				qw := set.Layers[layerIdx[conv.W]]
				qb := set.Layers[layerIdx[conv.B]]
				dim, rows := conv.Dim, conv.Kernel*conv.Dim
				for j := 0; j < dim; j++ {
					var score float64
					for r := 0; r < rows; r++ {
						score += qw[r*dim+j]
					}
					score += qb[j]
					units = append(units, unit{score, func() {
						if h.opMasks[u][b][s] == nil {
							h.opMasks[u][b][s] = make([]bool, dim)
							for i := range h.opMasks[u][b][s] {
								h.opMasks[u][b][s][i] = true
							}
						}
						h.opMasks[u][b][s][j] = false
					}})
				}
			}
		}
	}
	qf1w, qf1b, qf2w := set.Layers[layerIdx[h.FC1.W]], set.Layers[layerIdx[h.FC1.B]], set.Layers[layerIdx[h.FC2.W]]
	hiddenN, classes, in2d := h.Cfg.Hidden, h.Cfg.NumClasses, 2*h.Cfg.DModel
	for j := 0; j < hiddenN; j++ {
		var score float64
		for r := 0; r < in2d; r++ {
			score += qf1w[r*hiddenN+j]
		}
		score += qf1b[j]
		for c := 0; c < classes; c++ {
			score += qf2w[j*classes+c]
		}
		units = append(units, unit{score, func() { h.HiddenMask[j] = false }})
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].score < units[j].score })
	for i := 0; i < min(discardUnits, len(units)); i++ {
		units[i].apply()
	}
	if allFalse(h.HiddenMask) {
		h.HiddenMask[0] = true
	}
}

// pruneFixture is a header with three convolutions, one of them in two
// slots, over the test backbone.
func pruneFixture(t *testing.T) (*HeaderModel, *nn.Backbone) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	bb := testBackbone(t, rng)
	arch := Architecture{Blocks: []BlockGene{
		{In1: 0, In2: 1, Op1: OpConv3, Op2: OpConv1},
		{In1: 2, In2: 0, Op1: OpConv5, Op2: OpAvgPool},
		{In1: 3, In2: 1, Op1: OpIdentity, Op2: OpMaxPool},
	}}
	h, err := NewHeaderModel(testHeaderConfig(), arch, bb, rng)
	if err != nil {
		t.Fatal(err)
	}
	return h, bb
}

// TestApplyImportanceMatchesReference: ranking the units in a pooled
// list discards exactly the units the closure-per-unit ranking did —
// on distinct scores, on coarse scores full of ties (which keep unit
// order), with a NaN among them, and round after round on the same
// header, whose channel masks are reused.
func TestApplyImportanceMatchesReference(t *testing.T) {
	h, bb := pruneFixture(t)
	got, want := h.Clone(bb), h.Clone(bb)
	rng := rand.New(rand.NewSource(4))
	for round, shape := range []string{"distinct", "ties", "nan", "ties", "distinct"} {
		set := &importance.Set{}
		for _, p := range got.Params() {
			l := make([]float64, p.NumParams())
			for j := range l {
				switch shape {
				case "distinct":
					l[j] = rng.ExpFloat64()
				default:
					l[j] = float64(rng.Intn(2))
				}
			}
			set.Layers = append(set.Layers, l)
		}
		if shape == "nan" {
			set.Layers[0][3] = math.NaN()
		}
		discard := 3 + 4*round
		if err := got.ApplyImportance(set, discard); err != nil {
			t.Fatal(err)
		}
		refApplyImportance(want, set, discard)
		if !reflect.DeepEqual(got.ExportMasks(), want.ExportMasks()) {
			t.Fatalf("round %d (%s): masks differ from the reference ranking", round, shape)
		}
		if !reflect.DeepEqual(got.maskedCols, want.maskedCols) {
			t.Fatalf("round %d (%s): masked columns differ", round, shape)
		}
	}
}

// TestApplyImportanceAllocatesNothing: a header lists its parameters
// once and ApplyImportance ranks its units in a pooled list, so a warm
// call allocates nothing and the header keeps none of the ranking.
func TestApplyImportanceAllocatesNothing(t *testing.T) {
	h, _ := pruneFixture(t)
	if p, q := h.Params(), h.Params(); &p[0] != &q[0] {
		t.Fatal("Params built a second list")
	}
	set := importance.NewSet(h)
	rng := rand.New(rand.NewSource(5))
	for _, l := range set.Layers {
		for j := range l {
			l[j] = rng.ExpFloat64()
		}
	}
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := h.ApplyImportance(set, 7); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per warm ApplyImportance, want 0", allocs)
	}
}
