package nn

import (
	"math/rand"

	"acme/internal/tensor"
)

// Block is a pre-norm Transformer encoder block:
//
//	x = x + MHSA(LN1(x))
//	x = x + MLP(LN2(x))
type Block struct {
	LN1  *LayerNorm
	Attn *MHSA
	LN2  *LayerNorm
	FFN  *MLP

	// Reused buffers (the tensor.Ensure idiom of Linear). h and y are
	// Forward's two residual sums; y, the block's output, is what the
	// backbone keeps in tokens across a pass, and each block has its own,
	// so it stays valid until this block's next Forward. Backward outputs
	// are consumed by the next-lower block before this block runs again.
	h, y   *tensor.Matrix
	dh, dx *tensor.Matrix
}

// NewBlock returns a Transformer block with the given dimensions.
func NewBlock(name string, dModel, numHeads, hidden int, rng *rand.Rand) *Block {
	return &Block{
		LN1:  NewLayerNorm(name+".ln1", dModel, rng),
		Attn: NewMHSA(name+".attn", dModel, numHeads, rng),
		LN2:  NewLayerNorm(name+".ln2", dModel, rng),
		FFN:  NewMLP(name+".ffn", dModel, hidden, rng),
	}
}

// Forward applies the block to x (seq × d). The result is valid until
// this block's next Forward.
func (b *Block) Forward(x *tensor.Matrix) *tensor.Matrix {
	b.h = tensor.Ensure(b.h, x.Rows, x.Cols)
	tensor.AddInto(b.h, x, b.Attn.Forward(b.LN1.Forward(x)))
	b.y = tensor.Ensure(b.y, x.Rows, x.Cols)
	tensor.AddInto(b.y, b.h, b.FFN.Forward(b.LN2.Forward(b.h)))
	return b.y
}

// Backward propagates dy through the block and returns dx.
func (b *Block) Backward(dy *tensor.Matrix) *tensor.Matrix {
	b.dh = tensor.Ensure(b.dh, dy.Rows, dy.Cols)
	tensor.AddInto(b.dh, dy, b.LN2.Backward(b.FFN.Backward(dy)))
	b.dx = tensor.Ensure(b.dx, dy.Rows, dy.Cols)
	tensor.AddInto(b.dx, b.dh, b.LN1.Backward(b.Attn.Backward(b.dh)))
	return b.dx
}

// Params implements Module.
func (b *Block) Params() []*Param {
	ps := b.LN1.Params()
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.FFN.Params()...)
	return ps
}

// ActiveParamCount returns the parameter count with masks applied.
func (b *Block) ActiveParamCount() int {
	return 4*b.LN1.Dim + b.Attn.ActiveParamCount() + b.FFN.ActiveParamCount()
}

// SetRecordImportance toggles Taylor importance accumulation for both the
// attention heads and the MLP neurons of this block.
func (b *Block) SetRecordImportance(on bool) {
	b.Attn.RecordImportance = on
	b.FFN.RecordImportance = on
}

// ResetImportance zeroes accumulated importances in this block.
func (b *Block) ResetImportance() {
	b.Attn.ResetImportance()
	b.FFN.ResetImportance()
}
