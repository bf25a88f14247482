package nn

import (
	"fmt"
	"math/rand"

	"acme/internal/tensor"
)

// TokenBackboneConfig describes a BERT-style encoder over integer token
// sequences. It demonstrates the paper's claim that ACME "can serve
// different Transformer-based models": the blocks, masks, importance
// accumulators, and width/depth scaling are exactly the ones the vision
// backbone uses — only the embedding frontend differs.
type TokenBackboneConfig struct {
	VocabSize int
	SeqLen    int // tokens per sample (fixed length)
	DModel    int
	NumHeads  int
	Hidden    int
	Depth     int
}

// Validate reports configuration errors.
func (c TokenBackboneConfig) Validate() error {
	switch {
	case c.VocabSize <= 0 || c.SeqLen <= 0 || c.DModel <= 0 ||
		c.NumHeads <= 0 || c.Hidden <= 0 || c.Depth <= 0:
		return fmt.Errorf("nn: non-positive token backbone dimension %+v", c)
	case c.DModel%c.NumHeads != 0:
		return fmt.Errorf("nn: d_model %d not divisible by %d heads", c.DModel, c.NumHeads)
	default:
		return nil
	}
}

// TokenBackbone is [CLS] ++ token embeddings + positions → Depth
// pre-norm Transformer blocks → final LayerNorm.
type TokenBackbone struct {
	Cfg         TokenBackboneConfig
	ActiveDepth int

	Emb     *Param // vocab × d embedding table
	CLS     *Param // 1 × d
	Pos     *Param // (seq+1) × d
	Blocks  []*Block
	FinalLN *LayerNorm

	tokens    []*tensor.Matrix
	lastInput []int
}

// NewTokenBackbone builds a randomly initialized token encoder.
func NewTokenBackbone(cfg TokenBackboneConfig, rng *rand.Rand) (*TokenBackbone, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &TokenBackbone{
		Cfg:         cfg,
		ActiveDepth: cfg.Depth,
		Emb:         newParam("token.emb", cfg.VocabSize, cfg.DModel, rng),
		CLS:         newParam("token.cls", 1, cfg.DModel, rng),
		Pos:         newParam("token.pos", cfg.SeqLen+1, cfg.DModel, rng),
		FinalLN:     NewLayerNorm("token.lnf", cfg.DModel, rng),
	}
	b.Emb.InitNormal(rng, 0.1)
	b.CLS.InitNormal(rng, 0.02)
	b.Pos.InitNormal(rng, 0.02)
	b.Blocks = make([]*Block, cfg.Depth)
	for l := range b.Blocks {
		b.Blocks[l] = NewBlock(fmt.Sprintf("token.blk%d", l), cfg.DModel, cfg.NumHeads, cfg.Hidden, rng)
	}
	return b, nil
}

// SeqLen returns the internal sequence length (tokens + CLS).
func (b *TokenBackbone) SeqLen() int { return b.Cfg.SeqLen + 1 }

// Forward encodes the token sequence and returns the final (seq+1 × d)
// representation.
func (b *TokenBackbone) Forward(tokens []int) (*tensor.Matrix, error) {
	if len(tokens) != b.Cfg.SeqLen {
		return nil, fmt.Errorf("nn: sequence length %d want %d", len(tokens), b.Cfg.SeqLen)
	}
	t := tensor.New(b.SeqLen(), b.Cfg.DModel)
	copy(t.Row(0), b.CLS.Value.Data)
	for i, tok := range tokens {
		if tok < 0 || tok >= b.Cfg.VocabSize {
			return nil, fmt.Errorf("nn: token %d outside vocab [0,%d)", tok, b.Cfg.VocabSize)
		}
		copy(t.Row(i+1), b.Emb.Value.Row(tok))
	}
	tensor.AddInPlace(t, b.Pos.Value)

	b.lastInput = append(b.lastInput[:0], tokens...)
	b.tokens = make([]*tensor.Matrix, b.ActiveDepth+1)
	b.tokens[0] = t
	for l := 0; l < b.ActiveDepth; l++ {
		b.tokens[l+1] = b.Blocks[l].Forward(b.tokens[l])
	}
	return b.FinalLN.Forward(b.tokens[b.ActiveDepth]), nil
}

// Backward propagates dFinal through the encoder, accumulating
// embedding-table gradients for the tokens of the last Forward.
func (b *TokenBackbone) Backward(dFinal *tensor.Matrix) {
	d := b.FinalLN.Backward(dFinal)
	for l := b.ActiveDepth - 1; l >= 0; l-- {
		d = b.Blocks[l].Backward(d)
	}
	tensor.AddInPlace(b.Pos.Grad, d)
	for j := 0; j < b.Cfg.DModel; j++ {
		b.CLS.Grad.Data[j] += d.At(0, j)
	}
	for i, tok := range b.lastInput {
		tensor.Axpy(1, d.Row(i+1), b.Emb.Grad.Row(tok))
	}
}

// Params implements Module.
func (b *TokenBackbone) Params() []*Param {
	ps := []*Param{b.Emb, b.CLS, b.Pos}
	for _, blk := range b.Blocks {
		ps = append(ps, blk.Params()...)
	}
	return append(ps, b.FinalLN.Params()...)
}

// SetRecordImportance toggles Taylor importance accumulation.
func (b *TokenBackbone) SetRecordImportance(on bool) {
	for _, blk := range b.Blocks {
		blk.SetRecordImportance(on)
	}
}

// ScaleWidth masks heads/neurons down to width w by accumulated
// importance — identical semantics to the vision backbone.
func (b *TokenBackbone) ScaleWidth(w float64) error {
	if w <= 0 || w > 1 {
		return fmt.Errorf("nn: width factor %v outside (0,1]", w)
	}
	for _, blk := range b.Blocks {
		applyTopK(blk.Attn.HeadMask, blk.Attn.HeadImportance, ceilFrac(w, blk.Attn.NumHeads))
		applyTopK(blk.FFN.NeuronMask, blk.FFN.NeuronImportance, ceilFrac(w, blk.FFN.Hidden))
	}
	return nil
}

// SetDepth activates only the first d blocks.
func (b *TokenBackbone) SetDepth(d int) error {
	if d <= 0 || d > b.Cfg.Depth {
		return fmt.Errorf("nn: depth %d outside [1,%d]", d, b.Cfg.Depth)
	}
	b.ActiveDepth = d
	return nil
}

// ActiveParamCount counts parameters of the active sub-network.
func (b *TokenBackbone) ActiveParamCount() int {
	n := b.Emb.NumParams() + b.CLS.NumParams() + b.Pos.NumParams() + 2*b.Cfg.DModel
	for l := 0; l < b.ActiveDepth; l++ {
		n += b.Blocks[l].ActiveParamCount()
	}
	return n
}

// TokenClassifier pairs a TokenBackbone with a linear head over [CLS].
type TokenClassifier struct {
	Backbone *TokenBackbone
	Head     *Linear

	cls *tensor.Matrix
}

// NewTokenClassifier builds a sequence classifier.
func NewTokenClassifier(b *TokenBackbone, numClasses int, rng *rand.Rand) *TokenClassifier {
	return &TokenClassifier{
		Backbone: b,
		Head:     NewLinear("token.head", b.Cfg.DModel, numClasses, rng),
	}
}

// Forward returns class logits for a token sequence.
func (c *TokenClassifier) Forward(tokens []int) ([]float64, error) {
	f, err := c.Backbone.Forward(tokens)
	if err != nil {
		return nil, err
	}
	c.cls = tensor.FromSlice(1, f.Cols, append([]float64(nil), f.Row(0)...))
	return c.Head.Forward(c.cls).Row(0), nil
}

// Backward propagates a logits gradient through head and encoder.
func (c *TokenClassifier) Backward(dlogits []float64) {
	dl := tensor.FromSlice(1, len(dlogits), dlogits)
	dcls := c.Head.Backward(dl)
	dFinal := tensor.New(c.Backbone.SeqLen(), c.Backbone.Cfg.DModel)
	copy(dFinal.Row(0), dcls.Row(0))
	c.Backbone.Backward(dFinal)
}

// Params implements Module.
func (c *TokenClassifier) Params() []*Param {
	return append(c.Backbone.Params(), c.Head.Params()...)
}
