package nn

import (
	"math"
	"math/rand"
	"testing"

	"acme/internal/data"
	"acme/internal/tensor"
)

func tokenFixture(t *testing.T, seed int64) (*TokenClassifier, *data.TextDataset, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spec := data.DefaultTextSpec()
	ds, err := data.GenerateText(spec, 240, rng)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := NewTokenBackbone(TokenBackboneConfig{
		VocabSize: spec.VocabSize, SeqLen: spec.SeqLen,
		DModel: 16, NumHeads: 2, Hidden: 24, Depth: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return NewTokenClassifier(bb, spec.NumClasses, rng), ds, rng
}

func trainTokens(t *testing.T, c *TokenClassifier, ds *data.TextDataset, epochs int, rng *rand.Rand) {
	t.Helper()
	opt := NewAdam(3e-3)
	for e := 0; e < epochs; e++ {
		order := rng.Perm(ds.Len())
		for start := 0; start < len(order); start += 16 {
			end := start + 16
			if end > len(order) {
				end = len(order)
			}
			ZeroGrads(c)
			for _, i := range order[start:end] {
				logits, err := c.Forward(ds.Tokens[i])
				if err != nil {
					t.Fatal(err)
				}
				dl := make([]float64, len(logits))
				CrossEntropy(dl, logits, ds.Y[i])
				for j := range dl {
					dl[j] /= float64(end - start)
				}
				c.Backward(dl)
			}
			opt.Step(c.Params())
		}
	}
}

func tokenAccuracy(t *testing.T, c *TokenClassifier, ds *data.TextDataset) float64 {
	t.Helper()
	var correct int
	for i := range ds.Tokens {
		logits, err := c.Forward(ds.Tokens[i])
		if err != nil {
			t.Fatal(err)
		}
		if Argmax(logits) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

func TestTokenBackboneGradients(t *testing.T) {
	c, ds, rng := tokenFixture(t, 1)
	tokens := ds.Tokens[0]
	label := ds.Y[0]

	loss := func() float64 {
		logits, err := c.Forward(tokens)
		if err != nil {
			t.Fatal(err)
		}
		v := CrossEntropy(make([]float64, len(logits)), logits, label)
		return v
	}
	ZeroGrads(c)
	logits, err := c.Forward(tokens)
	if err != nil {
		t.Fatal(err)
	}
	dl := make([]float64, len(logits))
	CrossEntropy(dl, logits, label)
	c.Backward(dl)

	for _, p := range c.Params() {
		n := p.NumParams()
		for k := 0; k < 3 && k < n; k++ {
			i := rng.Intn(n)
			analytic := p.Grad.Data[i]
			const h = 1e-5
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			lp := loss()
			p.Value.Data[i] = orig - h
			lm := loss()
			p.Value.Data[i] = orig
			numeric := (lp - lm) / (2 * h)
			if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(numeric)) {
				t.Errorf("%s[%d]: analytic %.6g numeric %.6g", p.Name, i, analytic, numeric)
			}
		}
	}
}

func TestTokenClassifierLearnsMotifs(t *testing.T) {
	c, ds, rng := tokenFixture(t, 2)
	before := tokenAccuracy(t, c, ds)
	trainTokens(t, c, ds, 6, rng)
	after := tokenAccuracy(t, c, ds)
	if after < 0.7 {
		t.Fatalf("failed to learn motif classes: %.3f → %.3f", before, after)
	}
}

// TestTokenBackboneWidthScaling runs the full ACME width story on the
// text model: accumulate importance, mask to half width, verify the
// masked model is smaller and still clearly above chance.
func TestTokenBackboneWidthScaling(t *testing.T) {
	c, ds, rng := tokenFixture(t, 3)
	trainTokens(t, c, ds, 6, rng)

	bb := c.Backbone
	bb.SetRecordImportance(true)
	for i := 0; i < 60; i++ {
		logits, err := c.Forward(ds.Tokens[i])
		if err != nil {
			t.Fatal(err)
		}
		dl := make([]float64, len(logits))
		CrossEntropy(dl, logits, ds.Y[i])
		c.Backward(dl)
	}
	bb.SetRecordImportance(false)
	ZeroGrads(c)

	before := bb.ActiveParamCount()
	if err := bb.ScaleWidth(0.5); err != nil {
		t.Fatal(err)
	}
	if bb.ActiveParamCount() >= before {
		t.Fatal("width scaling did not shrink the model")
	}
	acc := tokenAccuracy(t, c, ds)
	chance := 1.0 / float64(ds.Spec.NumClasses)
	if acc < 2*chance {
		t.Fatalf("half-width model collapsed to %.3f (chance %.3f)", acc, chance)
	}
}

func TestTokenBackboneDepthScaling(t *testing.T) {
	c, ds, _ := tokenFixture(t, 4)
	bb := c.Backbone
	full, err := bb.Forward(ds.Tokens[0])
	if err != nil {
		t.Fatal(err)
	}
	fullCopy := full.Clone()
	if err := bb.SetDepth(1); err != nil {
		t.Fatal(err)
	}
	shallow, err := bb.Forward(ds.Tokens[0])
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Equal(fullCopy, shallow, 1e-9) {
		t.Fatal("depth change had no effect")
	}
	if bb.SetDepth(0) == nil || bb.SetDepth(3) == nil {
		t.Fatal("invalid depth accepted")
	}
}

func TestTokenBackboneRejectsBadInput(t *testing.T) {
	c, ds, _ := tokenFixture(t, 5)
	if _, err := c.Forward(ds.Tokens[0][:3]); err == nil {
		t.Fatal("short sequence accepted")
	}
	bad := append([]int(nil), ds.Tokens[0]...)
	bad[0] = 10_000
	if _, err := c.Forward(bad); err == nil {
		t.Fatal("out-of-vocab token accepted")
	}
}

func TestGenerateTextValidation(t *testing.T) {
	spec := data.DefaultTextSpec()
	spec.MotifTokens = 100 // exceeds vocab across classes
	if _, err := data.GenerateText(spec, 10, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
