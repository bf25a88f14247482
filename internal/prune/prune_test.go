package prune

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"acme/internal/data"
	"acme/internal/nn"
)

func setup(t *testing.T, seed int64) (*nn.BackboneClassifier, *data.Dataset, *rand.Rand) {
	t.Helper()
	return setupPublic(t, seed, 120)
}

// setupPublic trains a seeded reference for three epochs on a public
// dataset of the given size.
func setupPublic(t *testing.T, seed int64, samples int) (*nn.BackboneClassifier, *data.Dataset, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := data.Spec{
		Name: "prune-test", NumClasses: 8, NumSuper: 2, Dim: 16,
		SuperSep: 3, ClassSep: 1, WithinStd: 0.5,
	}
	gen, err := data.NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	public := gen.Sample(samples, nil, rng)
	bb, err := nn.NewBackbone(nn.BackboneConfig{
		InputDim: 16, NumPatches: 4, DModel: 8, NumHeads: 2, Hidden: 12, Depth: 3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ref := nn.NewBackboneClassifier(bb, 8, rng)
	opt := nn.NewAdam(1e-3)
	for e := 0; e < 3; e++ {
		if _, err := nn.TrainEpoch(ref, opt, public.X, public.Y, 16, rng); err != nil {
			t.Fatal(err)
		}
	}
	return ref, public, rng
}

func TestGenerateProducesRequestedShape(t *testing.T) {
	ref, public, rng := setup(t, 1)
	g := NewGenerator(ref, public, DefaultDistillConfig())
	student, err := g.Generate(0.5, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	sb := student.Backbone
	if sb.ActiveDepth != 2 {
		t.Fatalf("depth %d want 2", sb.ActiveDepth)
	}
	for l := 0; l < sb.ActiveDepth; l++ {
		if sb.Blocks[l].Attn.ActiveHeads() != 1 {
			t.Fatalf("block %d has %d heads, want 1", l, sb.Blocks[l].Attn.ActiveHeads())
		}
		if got := sb.Blocks[l].FFN.ActiveNeurons(); got != 6 {
			t.Fatalf("block %d has %d neurons, want 6", l, got)
		}
	}
	if sb.ActiveParamCount() >= ref.Backbone.ActiveParamCount() {
		t.Fatal("student not smaller than reference")
	}
}

func TestGenerateDoesNotMutateReference(t *testing.T) {
	ref, public, rng := setup(t, 2)
	before := ref.Backbone.ActiveParamCount()
	snapshot := ref.Backbone.Params()[3].Value.Clone()
	g := NewGenerator(ref, public, DefaultDistillConfig())
	if _, err := g.Generate(0.5, 1, rng); err != nil {
		t.Fatal(err)
	}
	if ref.Backbone.ActiveParamCount() != before {
		t.Fatal("reference masks mutated")
	}
	after := ref.Backbone.Params()[3].Value
	for i := range snapshot.Data {
		if snapshot.Data[i] != after.Data[i] {
			t.Fatal("reference weights mutated")
		}
	}
}

func TestDistillationImprovesStudent(t *testing.T) {
	ref, public, _ := setup(t, 3)

	cfgOff := DefaultDistillConfig()
	cfgOff.Epochs = 0
	raw, err := NewGenerator(ref, public, cfgOff).Generate(0.5, 1, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	cfgOn := DefaultDistillConfig()
	cfgOn.Epochs = 3
	distilled, err := NewGenerator(ref, public, cfgOn).Generate(0.5, 1, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}

	lossRaw, err := nn.MeanLoss(raw, public.X, public.Y)
	if err != nil {
		t.Fatal(err)
	}
	lossDistilled, err := nn.MeanLoss(distilled, public.X, public.Y)
	if err != nil {
		t.Fatal(err)
	}
	if lossDistilled >= lossRaw {
		t.Fatalf("distillation did not reduce loss: %.4f vs %.4f", lossDistilled, lossRaw)
	}
}

func TestGenerateInvalidArgs(t *testing.T) {
	ref, public, rng := setup(t, 4)
	g := NewGenerator(ref, public, DefaultDistillConfig())
	if _, err := g.Generate(0, 1, rng); err == nil {
		t.Fatal("width 0 accepted")
	}
	if _, err := g.Generate(1.5, 1, rng); err == nil {
		t.Fatal("width > 1 accepted")
	}
	if _, err := g.Generate(0.5, 99, rng); err == nil {
		t.Fatal("depth beyond reference accepted")
	}
}

func TestEnsureImportanceIdempotent(t *testing.T) {
	ref, public, rng := setup(t, 5)
	g := NewGenerator(ref, public, DefaultDistillConfig())
	if err := g.EnsureImportance(64, rng); err != nil {
		t.Fatal(err)
	}
	imp := append([]float64(nil), ref.Backbone.Blocks[0].Attn.HeadImportance...)
	if err := g.EnsureImportance(64, rng); err != nil {
		t.Fatal(err)
	}
	for i, v := range ref.Backbone.Blocks[0].Attn.HeadImportance {
		if v != imp[i] {
			t.Fatal("second EnsureImportance recomputed importances")
		}
	}
}

// TestEnsureImportancePinned pins the importance sums themselves, which
// TestCloudBackbonesPinned sees only through the top-k masks they select:
// the FNV-1a hash of every block's HeadImportance and NeuronImportance
// bits after EnsureImportance(256) on a seeded trained reference, with
// the reference trained and probed at each parallelism from 1 to 4. The
// constant was computed when both ran one sample after another, so a
// reordered fold of the data-parallel passes changes it.
func TestEnsureImportancePinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for p := 1; p <= 4; p++ {
		runtime.GOMAXPROCS(p)
		ref, public, rng := setupPublic(t, 7, 300)
		if err := NewGenerator(ref, public, DefaultDistillConfig()).EnsureImportance(256, rng); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, blk := range ref.Backbone.Blocks {
			for _, imp := range [][]float64{blk.Attn.HeadImportance, blk.FFN.NeuronImportance} {
				for _, v := range imp {
					binary.Write(h, binary.LittleEndian, math.Float64bits(v))
				}
			}
		}
		const want uint64 = 0xa36bc1a8d7fdc6b2
		if got := h.Sum64(); got != want {
			t.Fatalf("parallelism %d: importance hash %#x, want %#x", p, got, want)
		}
	}
}

// TestDistillMinibatchAllocatesNothing: once the models' buffers are
// warm, a distillation minibatch allocates nothing, per sample or for
// its Adam step, and release gives back every borrowed slab.
func TestDistillMinibatchAllocatesNothing(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector's sync.Pool drops pooled objects on purpose")
	}
	ref, public, _ := setup(t, 9)
	teacherBB := ref.Backbone.Clone()
	studentBB := ref.Backbone.Clone()
	if err := studentBB.SetDepth(2); err != nil {
		t.Fatal(err)
	}
	teacher := &nn.BackboneClassifier{Backbone: teacherBB, Head: cloneLinear(ref.Head)}
	student := &nn.BackboneClassifier{Backbone: studentBB, Head: cloneLinear(ref.Head)}
	d := newDistillation(teacher, student, DefaultDistillConfig())
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	minibatch := func() {
		if err := d.minibatch(public.X, idx); err != nil {
			t.Fatal(err)
		}
	}
	minibatch()
	if n := testing.AllocsPerRun(10, minibatch); n != 0 {
		t.Fatalf("a warm minibatch of %d samples made %v allocations, want 0", len(idx), n)
	}
	d.release()
	if n := nn.Lent(); n != 0 {
		t.Fatalf("%d scratch slabs still lent after release", n)
	}
	for _, p := range student.Params() {
		if p.Grad != nil {
			t.Fatalf("%s keeps a gradient after release", p.Name)
		}
	}
}
