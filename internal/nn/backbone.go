package nn

import (
	"fmt"
	"math/rand"
	"sort"

	"acme/internal/tensor"
)

// BackboneConfig describes the reference backbone θ₀ᴮ.
type BackboneConfig struct {
	InputDim   int // raw feature-vector dimension of a sample
	NumPatches int // tokens the input is split into (InputDim % NumPatches == 0)
	DModel     int // embedding width
	NumHeads   int // attention heads per block
	Hidden     int // MLP hidden width
	Depth      int // number of Transformer blocks
}

// Validate reports configuration errors.
func (c BackboneConfig) Validate() error {
	switch {
	case c.InputDim <= 0 || c.NumPatches <= 0 || c.DModel <= 0 ||
		c.NumHeads <= 0 || c.Hidden <= 0 || c.Depth <= 0:
		return fmt.Errorf("nn: non-positive backbone dimension %+v", c)
	case c.InputDim%c.NumPatches != 0:
		return fmt.Errorf("nn: input dim %d not divisible by %d patches", c.InputDim, c.NumPatches)
	case c.DModel%c.NumHeads != 0:
		return fmt.Errorf("nn: d_model %d not divisible by %d heads", c.DModel, c.NumHeads)
	default:
		return nil
	}
}

// Backbone is a micro vision-Transformer encoder over a tokenized
// feature vector: [CLS] ++ patch embeddings + positional embeddings,
// followed by Depth pre-norm blocks and a final LayerNorm.
//
// Width is scaled by masking heads/neurons (see ScaleWidth); depth is
// scaled by ActiveDepth, which runs only the first ActiveDepth blocks —
// the realization of the paper's transformation function
// θᴮ = δ(θ₀ᴮ, w, d).
type Backbone struct {
	Cfg         BackboneConfig
	ActiveDepth int

	PatchEmbed *Linear
	CLS        *Param // 1 × d
	Pos        *Param // (patches+1) × d
	Blocks     []*Block
	FinalLN    *LayerNorm

	// Forward caches. Every matrix below is a per-instance buffer (this
	// backbone's, a block's, a layer's) that the next Forward overwrites:
	// Forward's result, Embedding, HiddenStates and Penultimate are valid
	// until then, and after the first sample a Forward allocates nothing.
	tokens  []*tensor.Matrix // tokens[l] = input to block l; tokens[ActiveDepth] = last block output
	final   *tensor.Matrix
	embed   *tensor.Matrix // tokens[0]
	patches tensor.Matrix  // the current sample viewed as patches × patchDim

	dPatches tensor.Matrix // Backward's view of the patch rows of the token gradient

	rec *rec // set on a replica's copy (see team): the token gradient is recorded, not accumulated
}

// NewBackbone builds a randomly initialized reference backbone (a
// received one for a nil rng, see Param).
func NewBackbone(cfg BackboneConfig, rng *rand.Rand) (*Backbone, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	patchDim := cfg.InputDim / cfg.NumPatches
	b := &Backbone{
		Cfg:         cfg,
		ActiveDepth: cfg.Depth,
		PatchEmbed:  NewLinear("backbone.embed", patchDim, cfg.DModel, rng),
		CLS:         newParam("backbone.cls", 1, cfg.DModel, rng),
		Pos:         newParam("backbone.pos", cfg.NumPatches+1, cfg.DModel, rng),
		FinalLN:     NewLayerNorm("backbone.lnf", cfg.DModel, rng),
	}
	b.CLS.InitNormal(rng, 0.02)
	b.Pos.InitNormal(rng, 0.02)
	b.Blocks = make([]*Block, cfg.Depth)
	for l := range b.Blocks {
		b.Blocks[l] = NewBlock(fmt.Sprintf("backbone.blk%d", l), cfg.DModel, cfg.NumHeads, cfg.Hidden, rng)
	}
	return b, nil
}

// SeqLen returns the token sequence length (patches + CLS).
func (b *Backbone) SeqLen() int { return b.Cfg.SeqLen() }

// SeqLen returns the token sequence length of a backbone of this
// configuration (patches + CLS).
func (c BackboneConfig) SeqLen() int { return c.NumPatches + 1 }

// Tokenize embeds sample x into the (seq × d) token matrix — the input
// of block 0. Exposed for incremental execution (early-exit inference
// runs blocks one at a time via Blocks[l].Forward). The result is valid
// until this backbone's next Tokenize or Forward.
func (b *Backbone) Tokenize(x []float64) (*tensor.Matrix, error) {
	if len(x) != b.Cfg.InputDim {
		return nil, fmt.Errorf("nn: sample dim %d want %d", len(x), b.Cfg.InputDim)
	}
	return b.tokenize(x), nil
}

// tokenize embeds sample x into the (seq × d) token matrix.
func (b *Backbone) tokenize(x []float64) *tensor.Matrix {
	b.patches = tensor.Matrix{Rows: b.Cfg.NumPatches, Cols: b.Cfg.InputDim / b.Cfg.NumPatches, Data: x}
	emb := b.PatchEmbed.Forward(&b.patches)
	b.embed = tensor.Ensure(b.embed, b.SeqLen(), b.Cfg.DModel)
	t := b.embed // every row is written below
	copy(t.Row(0), b.CLS.Value.Data)
	for i := 0; i < b.Cfg.NumPatches; i++ {
		copy(t.Row(i+1), emb.Row(i))
	}
	tensor.AddInPlace(t, b.Pos.Value)
	return t
}

// Forward runs the backbone on sample x (length InputDim) and returns
// the final (seq × d) representation, valid until this backbone's next
// Forward.
func (b *Backbone) Forward(x []float64) (*tensor.Matrix, error) {
	if len(x) != b.Cfg.InputDim {
		return nil, fmt.Errorf("nn: sample dim %d want %d", len(x), b.Cfg.InputDim)
	}
	if cap(b.tokens) <= b.ActiveDepth {
		b.tokens = make([]*tensor.Matrix, b.Cfg.Depth+1)
	}
	b.tokens = b.tokens[:b.ActiveDepth+1]
	b.tokens[0] = b.tokenize(x)
	for l := 0; l < b.ActiveDepth; l++ {
		b.tokens[l+1] = b.Blocks[l].Forward(b.tokens[l])
	}
	b.final = b.FinalLN.Forward(b.tokens[b.ActiveDepth])
	return b.final, nil
}

// Embedding returns the token matrix after patch+positional embedding
// from the most recent Forward (the E term of the distillation loss).
func (b *Backbone) Embedding() *tensor.Matrix { return b.tokens[0] }

// HiddenStates returns the per-block outputs from the most recent
// Forward (the H terms of the distillation loss).
func (b *Backbone) HiddenStates() []*tensor.Matrix { return b.tokens[1:] }

// Penultimate returns the input to the last active block, which the NAS
// header search space exposes as an auxiliary input.
func (b *Backbone) Penultimate() *tensor.Matrix {
	if b.ActiveDepth == 0 {
		return b.tokens[0]
	}
	return b.tokens[b.ActiveDepth-1]
}

// Backward propagates dFinal (gradient at the final representation)
// through the backbone. injections, if non-nil, holds extra gradients to
// add at tokens[l] for l in [0, ActiveDepth] — used by distillation
// (hidden-state and embedding losses) and by headers that consume the
// penultimate representation.
func (b *Backbone) Backward(dFinal *tensor.Matrix, injections map[int]*tensor.Matrix) {
	var d *tensor.Matrix
	if dFinal != nil {
		d = b.FinalLN.Backward(dFinal)
	} else {
		d = tensor.New(b.SeqLen(), b.Cfg.DModel)
	}
	for l := b.ActiveDepth - 1; l >= 0; l-- {
		if inj, ok := injections[l+1]; ok {
			tensor.AddInPlace(d, inj)
		}
		d = b.Blocks[l].Backward(d)
	}
	if inj, ok := injections[0]; ok {
		tensor.AddInPlace(d, inj)
	}
	// d is the gradient at the token matrix: pos, cls, patch embed. The
	// input has no gradient, so the patch embedding skips its dx.
	if b.rec != nil {
		b.rec.put(d)
	} else {
		tensor.AddInPlace(b.Pos.Grad, d)
		tensor.Axpy(1, d.Row(0), b.CLS.Grad.Data)
	}
	b.dPatches = tensor.Matrix{Rows: b.Cfg.NumPatches, Cols: b.Cfg.DModel, Data: d.Data[b.Cfg.DModel:]}
	b.PatchEmbed.accumulate(&b.dPatches)
}

// Params implements Module. It returns the parameters of every block,
// including currently inactive depth, so optimizer state stays stable
// across depth changes.
func (b *Backbone) Params() []*Param {
	ps := []*Param{b.CLS, b.Pos}
	ps = append(ps, b.PatchEmbed.Params()...)
	for _, blk := range b.Blocks {
		ps = append(ps, blk.Params()...)
	}
	ps = append(ps, b.FinalLN.Params()...)
	return ps
}

// ActiveParamCount returns the parameter count of the active sub-network
// (ActiveDepth blocks, masks applied) plus embeddings.
func (b *Backbone) ActiveParamCount() int {
	n := len(b.CLS.Value.Data) + len(b.Pos.Value.Data) +
		b.PatchEmbed.W.NumParams() + b.PatchEmbed.B.NumParams() +
		2*b.Cfg.DModel
	for l := 0; l < b.ActiveDepth; l++ {
		n += b.Blocks[l].ActiveParamCount()
	}
	return n
}

// SetRecordImportance toggles Taylor importance accumulation in every
// active block.
func (b *Backbone) SetRecordImportance(on bool) {
	for _, blk := range b.Blocks {
		blk.SetRecordImportance(on)
	}
}

// ResetImportance zeroes all accumulated head/neuron importances.
func (b *Backbone) ResetImportance() {
	for _, blk := range b.Blocks {
		blk.ResetImportance()
	}
}

// ScaleWidth masks each block down to ⌈w·heads⌉ heads and ⌈w·hidden⌉
// neurons, keeping the highest accumulated importances (paper §III-B1:
// "discard those at the bottom of the list"). w must be in (0, 1].
func (b *Backbone) ScaleWidth(w float64) error {
	if w <= 0 || w > 1 {
		return fmt.Errorf("nn: width factor %v outside (0,1]", w)
	}
	for _, blk := range b.Blocks {
		keepHeads := ceilFrac(w, blk.Attn.NumHeads)
		applyTopK(blk.Attn.HeadMask, blk.Attn.HeadImportance, keepHeads)
		keepNeurons := ceilFrac(w, blk.FFN.Hidden)
		applyTopK(blk.FFN.NeuronMask, blk.FFN.NeuronImportance, keepNeurons)
	}
	return nil
}

// SetDepth activates only the first d blocks.
func (b *Backbone) SetDepth(d int) error {
	if d <= 0 || d > b.Cfg.Depth {
		return fmt.Errorf("nn: depth %d outside [1,%d]", d, b.Cfg.Depth)
	}
	b.ActiveDepth = d
	return nil
}

// Width returns the current effective width factor (active heads over
// total heads of the first block; head and neuron masks move together).
func (b *Backbone) Width() float64 {
	if len(b.Blocks) == 0 {
		return 1
	}
	return float64(b.Blocks[0].Attn.ActiveHeads()) / float64(b.Cfg.NumHeads)
}

// Clone returns a deep copy of the backbone (parameters, masks, depth).
// The copy is a received model: it holds no gradient storage until it
// trains.
func (b *Backbone) Clone() *Backbone {
	nb, err := NewBackbone(b.Cfg, nil)
	if err != nil {
		// Cfg was already validated at construction; this is unreachable.
		panic(err)
	}
	src := b.Params()
	dst := nb.Params()
	for i := range src {
		copy(dst[i].Value.Data, src[i].Value.Data)
	}
	nb.ActiveDepth = b.ActiveDepth
	for l, blk := range b.Blocks {
		copy(nb.Blocks[l].Attn.HeadMask, blk.Attn.HeadMask)
		copy(nb.Blocks[l].FFN.NeuronMask, blk.FFN.NeuronMask)
		copy(nb.Blocks[l].Attn.HeadImportance, blk.Attn.HeadImportance)
		copy(nb.Blocks[l].FFN.NeuronImportance, blk.FFN.NeuronImportance)
	}
	return nb
}

func ceilFrac(w float64, n int) int {
	k := int(w*float64(n) + 0.999999)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// applyTopK sets mask true for the k highest-importance entries and
// false elsewhere. Ties break toward lower index for determinism.
func applyTopK(mask []bool, importance []float64, k int) {
	idx := make([]int, len(mask))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return importance[idx[a]] > importance[idx[b]]
	})
	for i := range mask {
		mask[i] = false
	}
	for i := 0; i < k && i < len(idx); i++ {
		mask[idx[i]] = true
	}
}
