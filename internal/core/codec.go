package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"acme/internal/checkpoint"
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
	Name  string
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
			return fmt.Errorf("core: blob %s: %d values into %d slots", p.Name, len(p.Data), len(dst))
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

// SparseLayer is one parameter tensor's importance entries in sparse
// form: only the top-k values by magnitude, with their indices.
type SparseLayer struct {
	Size    int32
	Indices []int32
	Values  []float32
}

// ImportanceUpload is the device → edge importance set. Values travel
// as float32: importance magnitudes are only used for ranking, and a
// real deployment would not ship double precision. When the system is
// configured with TopKFraction < 1, Sparse carries a top-k subset
// instead of Layers; with a non-lossless Quantization mode, Quant
// carries packed float16/int8 layers instead (sparsification wins when
// both are configured).
type ImportanceUpload struct {
	DeviceID int
	Layers   [][]float32
	Quant    []QuantLayer
	Sparse   []SparseLayer
}

// PersonalizedSet is the edge → device aggregated set Q'n, with the
// same dense/quantized payload split as ImportanceUpload. Done ends
// the single loop (convergence or round budget reached).
type PersonalizedSet struct {
	Layers  [][]float32
	Quant   []QuantLayer
	Discard int
	Done    bool
}

// layers extracts the float64 importance layers from whichever payload
// an upload carries; topK is the run's Wire.TopKFraction, which a sparse
// payload is vetted against.
func (u *ImportanceUpload) layers(topK float64) ([][]float64, error) {
	switch {
	case len(u.Sparse) > 0:
		return densifySet(u.Sparse, topK)
	case len(u.Quant) > 0:
		return dequantizeLayers(u.Quant)
	default:
		return dequantizeSet(u.Layers), nil
	}
}

// layers extracts the float64 aggregated layers from whichever payload
// the set carries.
func (p *PersonalizedSet) layers() ([][]float64, error) {
	if len(p.Quant) > 0 {
		return dequantizeLayers(p.Quant)
	}
	return dequantizeSet(p.Layers), nil
}

// topKCount is how many of a layer's n entries top-k sparsification at
// fraction keeps.
func topKCount(n int, fraction float64) int {
	return min(max(int(fraction*float64(n)), 1), n)
}

// sparsifySet keeps the top fraction of entries (by value) per layer.
func sparsifySet(layers [][]float64, fraction float64) []SparseLayer {
	out := make([]SparseLayer, len(layers))
	for i, l := range layers {
		k := topKCount(len(l), fraction)
		idx := make([]int, len(l))
		for j := range idx {
			idx[j] = j
		}
		sort.SliceStable(idx, func(a, b int) bool { return l[idx[a]] > l[idx[b]] })
		sl := SparseLayer{
			Size:    int32(len(l)),
			Indices: make([]int32, k),
			Values:  make([]float32, k),
		}
		for j := 0; j < k; j++ {
			sl.Indices[j] = int32(idx[j])
			sl.Values[j] = float32(l[idx[j]])
		}
		out[i] = sl
	}
	return out
}

// densifySet reconstructs dense layers from a sparse upload (missing
// entries are zero — they were below the top-k cut). The upload comes
// off the wire, so each layer is vetted before its row is allocated: it
// must carry exactly the entries sparsifySet keeps of Size at the run's
// fraction — which bounds Size by the payload's own length — all of them
// inside the row.
func densifySet(sparse []SparseLayer, fraction float64) ([][]float64, error) {
	out := make([][]float64, len(sparse))
	for i, sl := range sparse {
		k := topKCount(int(sl.Size), fraction)
		if sl.Size < 0 || len(sl.Indices) != k || len(sl.Values) != k {
			return nil, fmt.Errorf("sparse layer %d: size %d with %d indices and %d values, want %d of each at top-k fraction %v",
				i, sl.Size, len(sl.Indices), len(sl.Values), k, fraction)
		}
		for _, idx := range sl.Indices {
			if idx < 0 || idx >= sl.Size {
				return nil, fmt.Errorf("sparse layer %d: index %d outside [0,%d)", i, idx, sl.Size)
			}
		}
		row := make([]float64, sl.Size)
		for j, idx := range sl.Indices {
			row[idx] = float64(sl.Values[j])
		}
		out[i] = row
	}
	return out, nil
}

// quantizeSet converts importance layers to float32 for the wire.
func quantizeSet(layers [][]float64) [][]float32 {
	out := make([][]float32, len(layers))
	for i, l := range layers {
		row := make([]float32, len(l))
		for j, v := range l {
			row[j] = float32(v)
		}
		out[i] = row
	}
	return out
}

// dequantizeSet converts wire layers back to float64.
func dequantizeSet(layers [][]float32) [][]float64 {
	out := make([][]float64, len(layers))
	for i, l := range layers {
		row := make([]float64, len(l))
		for j, v := range l {
			row[j] = float64(v)
		}
		out[i] = row
	}
	return out
}

// DeviceReport is the device's final metrics, sent to the collector.
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
			Name: p.Name,
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
		if p.NumParams() != blobs[i].Count() {
			return fmt.Errorf("core: param %s size %d vs blob %d", p.Name, p.NumParams(), blobs[i].Count())
		}
		if err := blobs[i].Values(p.Value.Data); err != nil {
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

// DeviceCheckpoint is the saved final model of one device.
type DeviceCheckpoint struct {
	DeviceID int
	Package  HeaderPackage
}

// SaveDeviceCheckpoint writes the device's customized model to
// dir/device-N.ckpt.
func SaveDeviceCheckpoint(dir string, id int, backbone *nn.Backbone, header *nas.HeaderModel, cand pareto.Candidate) error {
	// Checkpoints are always lossless: quantization is a wire-transfer
	// trade-off, not a storage format.
	pkg := EncodeHeader(header, QuantLossless)
	pkg.Backbone = EncodeBackbone(backbone, cand.W, cand.D, cand, QuantLossless)
	cp := DeviceCheckpoint{DeviceID: id, Package: pkg}
	path := filepath.Join(dir, fmt.Sprintf("device-%d.ckpt", id))
	if err := checkpoint.WriteFile(path, checkpoint.CodecGob, cp, false); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// LoadDeviceCheckpoint restores a device's customized model from
// dir/device-N.ckpt.
func LoadDeviceCheckpoint(dir string, id int) (*nn.Backbone, *nas.HeaderModel, error) {
	raw, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("device-%d.ckpt", id)))
	if err != nil {
		return nil, nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	var cp DeviceCheckpoint
	if _, err := checkpoint.Decode(raw, &cp); err != nil {
		return nil, nil, fmt.Errorf("core: decode checkpoint: %w", err)
	}
	backbone, err := DecodeBackbone(cp.Package.Backbone)
	if err != nil {
		return nil, nil, err
	}
	header, err := DecodeHeader(cp.Package, backbone)
	if err != nil {
		return nil, nil, err
	}
	return backbone, header, nil
}
