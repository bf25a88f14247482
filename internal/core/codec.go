package core

import (
	"fmt"

	"acme/internal/energy"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
)

// ParamBlob is a serialized parameter tensor. In lossless mode Data
// carries exact float64 values; in quantized modes Quant carries the
// packed payload (2 bytes/value for float16, 1 for int8) and Data is
// empty. Scale is the int8 per-tensor scale factor.
type ParamBlob struct {
	Rows  int
	Cols  int
	Data  []float64
	Mode  QuantMode
	Quant []byte
	Scale float64
}

// Count returns the number of parameter values the blob carries.
func (p *ParamBlob) Count() int {
	switch p.Mode {
	case QuantFloat16:
		return len(p.Quant) / 2
	case QuantInt8:
		return len(p.Quant)
	default:
		return len(p.Data)
	}
}

// Values decodes the blob into dst (which must have Count() length).
func (p *ParamBlob) Values(dst []float64) error {
	if p.Mode == QuantLossless {
		if len(dst) != len(p.Data) {
			return fmt.Errorf("core: %dx%d blob: %d values into %d slots", p.Rows, p.Cols, len(p.Data), len(dst))
		}
		copy(dst, p.Data)
		return nil
	}
	return dequantizeValues(dst, p.Quant, p.Scale, p.Mode)
}

// DeviceStats is the device → edge attribute upload.
type DeviceStats struct {
	ID         int
	VCPUs      int
	GPU        float64
	Storage    float64
	Profile    energy.Profile
	NumSamples int
}

// ClusterStats is the edge → cloud statistical-parameters upload: the
// aggregate attributes of the edge's device cluster.
type ClusterStats struct {
	EdgeID     int
	MinStorage float64
	Profile    energy.Profile
	DeviceIDs  []int
}

// RawShard is the device → edge shared-data upload.
type RawShard struct {
	DeviceID  int
	X         [][]float64
	Y         []int
	Histogram []float64
}

// BackboneAssignment is the cloud → edge backbone distribution.
type BackboneAssignment struct {
	W           float64
	D           int
	ActiveDepth int
	Cfg         nn.BackboneConfig
	Params      []ParamBlob
	HeadMasks   [][]bool
	NeuronMasks [][]bool
	Candidate   pareto.Candidate
}

// HeaderPackage is the edge → device model distribution: the customized
// backbone plus the searched header.
type HeaderPackage struct {
	Backbone     BackboneAssignment
	HeaderCfg    nas.HeaderConfig
	Arch         nas.Architecture
	HeaderParams []ParamBlob
	// Masks carries the pruning state for checkpointed
	// (post-Phase-2-2) headers.
	Masks nas.HeaderMasks
}

// ImportanceUpload is the device → edge importance set in its dense
// lossless form. Values travel as float32: importance magnitudes are
// only used for ranking, and a real deployment would not ship double
// precision. Quantized and top-k sets never take this form: they
// travel only as delta records (DeltaUpload; see
// WireOptions.deltaRecords).
type ImportanceUpload struct {
	DeviceID int
	Layers   [][]float32
}

// PersonalizedSet is the edge → device aggregated set Q'n in its dense
// lossless form; a quantized set travels as a DownlinkDelta instead.
// Done ends the single loop (convergence or round budget reached).
type PersonalizedSet struct {
	Layers  [][]float32
	Discard int
	Done    bool
}

// quantizeSetInto converts importance layers to float32 for the wire,
// into rows cut from l (allocated when l is nil).
func quantizeSetInto(l *nn.Lease, layers [][]float64) [][]float32 {
	out := make([][]float32, len(layers))
	for i, layer := range layers {
		row := l.F32s(len(layer))
		for j, v := range layer {
			row[j] = float32(v)
		}
		out[i] = row
	}
	return out
}

// dequantizeSetInto converts wire layers back to float64, into rows cut
// from l (allocated when l is nil).
func dequantizeSetInto(l *nn.Lease, layers [][]float32) [][]float64 {
	out := make([][]float64, len(layers))
	for i, layer := range layers {
		row := l.F64s(len(layer))
		for j, v := range layer {
			row[j] = float64(v)
		}
		out[i] = row
	}
	return out
}

// DeviceReport is the device's final metrics, sent to its edge.
type DeviceReport struct {
	DeviceID       int
	EdgeID         int
	Width          float64
	Depth          int
	AccuracyCoarse float64 // after Phase 2-1 header, before refinement
	AccuracyFinal  float64 // after Phase 2-2 loop
	Energy         float64
	BackboneParams int
	HeaderParams   int
}

func blobsFromParams(params []*nn.Param, mode QuantMode) []ParamBlob {
	out := make([]ParamBlob, len(params))
	for i, p := range params {
		blob := ParamBlob{
			Rows: p.Value.Rows,
			Cols: p.Value.Cols,
			Mode: mode,
		}
		if mode == QuantLossless {
			blob.Data = append([]float64(nil), p.Value.Data...)
		} else {
			// QuantMixed resolves to a concrete lane per tensor; the
			// chosen mode travels in the blob. quantizeValues only fails
			// on an unknown mode, which Config validation already rejects.
			blob.Mode = resolveMode(mode, p.Value.Data)
			blob.Quant, blob.Scale, _ = quantizeValues(p.Value.Data, blob.Mode)
		}
		out[i] = blob
	}
	return out
}

func loadParams(params []*nn.Param, blobs []ParamBlob) error {
	if len(params) != len(blobs) {
		return fmt.Errorf("core: %d params vs %d blobs", len(params), len(blobs))
	}
	for i, p := range params {
		b := &blobs[i]
		if p.NumParams() != b.Count() {
			return fmt.Errorf("core: blob %d (%dx%d): %d values for a %d-value param", i, b.Rows, b.Cols, b.Count(), p.NumParams())
		}
		if err := b.Values(p.Value.Data); err != nil {
			return err
		}
	}
	return nil
}

// EncodeBackbone packages a backbone's weights and masks, quantizing
// the parameter payloads according to mode.
func EncodeBackbone(b *nn.Backbone, w float64, d int, cand pareto.Candidate, mode QuantMode) BackboneAssignment {
	asg := BackboneAssignment{
		W:           w,
		D:           d,
		ActiveDepth: b.ActiveDepth,
		Cfg:         b.Cfg,
		Params:      blobsFromParams(b.Params(), mode),
		Candidate:   cand,
	}
	for _, blk := range b.Blocks {
		asg.HeadMasks = append(asg.HeadMasks, append([]bool(nil), blk.Attn.HeadMask...))
		asg.NeuronMasks = append(asg.NeuronMasks, append([]bool(nil), blk.FFN.NeuronMask...))
	}
	return asg
}

// DecodeBackbone reconstructs a backbone from an assignment, as a
// received model (nn.Param): no gradient storage unless it trains.
func DecodeBackbone(asg BackboneAssignment) (*nn.Backbone, error) {
	b, err := nn.NewBackbone(asg.Cfg, nil)
	if err != nil {
		return nil, err
	}
	if err := loadParams(b.Params(), asg.Params); err != nil {
		return nil, err
	}
	if len(asg.HeadMasks) != len(b.Blocks) || len(asg.NeuronMasks) != len(b.Blocks) {
		return nil, fmt.Errorf("core: mask count %d/%d vs %d blocks", len(asg.HeadMasks), len(asg.NeuronMasks), len(b.Blocks))
	}
	for l, blk := range b.Blocks {
		if len(asg.HeadMasks[l]) != len(blk.Attn.HeadMask) || len(asg.NeuronMasks[l]) != len(blk.FFN.NeuronMask) {
			return nil, fmt.Errorf("core: block %d mask size mismatch", l)
		}
		copy(blk.Attn.HeadMask, asg.HeadMasks[l])
		copy(blk.FFN.NeuronMask, asg.NeuronMasks[l])
	}
	if err := b.SetDepth(asg.ActiveDepth); err != nil {
		return nil, err
	}
	return b, nil
}

// EncodeHeader packages a header model's architecture, weights, and
// pruning masks, quantizing the parameter payloads according to mode.
func EncodeHeader(h *nas.HeaderModel, mode QuantMode) HeaderPackage {
	return HeaderPackage{
		HeaderCfg:    h.Cfg,
		Arch:         h.Arch,
		HeaderParams: blobsFromParams(h.Params(), mode),
		Masks:        h.ExportMasks(),
	}
}

// DecodeHeader reconstructs a header over the given backbone, as a
// received model (nn.Param).
func DecodeHeader(pkg HeaderPackage, backbone *nn.Backbone) (*nas.HeaderModel, error) {
	h, err := nas.NewHeaderModel(pkg.HeaderCfg, pkg.Arch, backbone, nil)
	if err != nil {
		return nil, err
	}
	if err := loadParams(h.Params(), pkg.HeaderParams); err != nil {
		return nil, err
	}
	if len(pkg.Masks.Hidden) > 0 {
		if err := h.ImportMasks(pkg.Masks); err != nil {
			return nil, err
		}
	}
	return h, nil
}
