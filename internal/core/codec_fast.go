package core

import (
	"acme/internal/wire"
)

// Hand-rolled wire codecs for the hot payload kinds: the importance
// set and its delta form, the downlink delta, the header package (and
// the backbone assignment nested in it), and the raw data shard.
// wire.AppendEncode/Decode dispatch to these ahead of the generic
// reflect walk; the reflect path remains the fallback for every other
// type and the differential-test oracle for these — the two must stay
// byte-identical (TestFastCodecMatchesReflect).
//
// Decoding reuses the target's existing slices where capacity allows
// and carves fresh ones from the Dec's arena otherwise, so a
// steady-state decode loop (the edge folding one upload per device
// per round into the same scratch value) allocates nothing per
// message. Cold nested metadata (backbone/header configs, the Pareto
// candidate, header masks) delegates to the reflect walk: hand-rolling
// configuration structs buys nothing and would rot as they evolve.

// listTarget sizes a decode target list: reuse s's backing when it is
// big enough, allocate otherwise, and pin the empty case to nil so the
// result is indistinguishable from the reflect decoder's.
func listTarget[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// --- ParamBlob -----------------------------------------------------

func (p ParamBlob) appendWire(b []byte) []byte {
	b = wire.AppendStructTag(b, 7)
	b = wire.AppendString(b, p.Name)
	b = wire.AppendInt(b, int64(p.Rows))
	b = wire.AppendInt(b, int64(p.Cols))
	b = wire.AppendF64s(b, p.Data)
	b = wire.AppendInt(b, int64(p.Mode))
	b = wire.AppendBytes(b, p.Quant)
	return wire.AppendFloat64(b, p.Scale)
}

func (p *ParamBlob) decodeWire(d *wire.Dec) error {
	if err := d.Struct("core.ParamBlob", 7); err != nil {
		return err
	}
	var err error
	if p.Name, err = d.String("ParamBlob.Name"); err != nil {
		return err
	}
	rows, err := d.Int("ParamBlob.Rows")
	if err != nil {
		return err
	}
	p.Rows = int(rows)
	cols, err := d.Int("ParamBlob.Cols")
	if err != nil {
		return err
	}
	p.Cols = int(cols)
	if p.Data, err = d.F64s("ParamBlob.Data", p.Data); err != nil {
		return err
	}
	mode, err := d.Int("ParamBlob.Mode")
	if err != nil {
		return err
	}
	p.Mode = QuantMode(mode)
	if p.Quant, err = d.Bytes("ParamBlob.Quant"); err != nil {
		return err
	}
	p.Scale, err = d.Float64("ParamBlob.Scale")
	return err
}

func appendParamBlobs(b []byte, blobs []ParamBlob) []byte {
	b = wire.AppendListTag(b, len(blobs))
	for i := range blobs {
		b = blobs[i].appendWire(b)
	}
	return b
}

func decodeParamBlobs(d *wire.Dec, what string, prev []ParamBlob) ([]ParamBlob, error) {
	n, err := d.ListLen(what)
	if err != nil {
		return nil, err
	}
	blobs := listTarget(prev, n)
	for i := range blobs {
		if err := blobs[i].decodeWire(d); err != nil {
			return nil, err
		}
	}
	return blobs, nil
}

// --- BackboneAssignment / HeaderPackage ----------------------------

func appendBoolPlanes(b []byte, planes [][]bool) []byte {
	b = wire.AppendListTag(b, len(planes))
	for _, p := range planes {
		b = wire.AppendBools(b, p)
	}
	return b
}

func decodeBoolPlanes(d *wire.Dec, what string, prev [][]bool) ([][]bool, error) {
	n, err := d.ListLen(what)
	if err != nil {
		return nil, err
	}
	planes := listTarget(prev, n)
	for i := range planes {
		if planes[i], err = d.Bools(what, planes[i]); err != nil {
			return nil, err
		}
	}
	return planes, nil
}

// AppendWire implements wire.Marshaler.
func (a BackboneAssignment) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendStructTag(b, 8)
	b = wire.AppendFloat64(b, a.W)
	b = wire.AppendInt(b, int64(a.D))
	b = wire.AppendInt(b, int64(a.ActiveDepth))
	b, err := wire.AppendReflect(b, a.Cfg)
	if err != nil {
		return nil, err
	}
	b = appendParamBlobs(b, a.Params)
	b = appendBoolPlanes(b, a.HeadMasks)
	b = appendBoolPlanes(b, a.NeuronMasks)
	return wire.AppendReflect(b, a.Candidate)
}

// DecodeWire implements wire.Unmarshaler.
func (a *BackboneAssignment) DecodeWire(d *wire.Dec) error {
	if err := d.Struct("core.BackboneAssignment", 8); err != nil {
		return err
	}
	var err error
	if a.W, err = d.Float64("BackboneAssignment.W"); err != nil {
		return err
	}
	dd, err := d.Int("BackboneAssignment.D")
	if err != nil {
		return err
	}
	a.D = int(dd)
	ad, err := d.Int("BackboneAssignment.ActiveDepth")
	if err != nil {
		return err
	}
	a.ActiveDepth = int(ad)
	if err := d.Reflect(&a.Cfg); err != nil {
		return err
	}
	if a.Params, err = decodeParamBlobs(d, "BackboneAssignment.Params", a.Params); err != nil {
		return err
	}
	if a.HeadMasks, err = decodeBoolPlanes(d, "BackboneAssignment.HeadMasks", a.HeadMasks); err != nil {
		return err
	}
	if a.NeuronMasks, err = decodeBoolPlanes(d, "BackboneAssignment.NeuronMasks", a.NeuronMasks); err != nil {
		return err
	}
	return d.Reflect(&a.Candidate)
}

// AppendWire implements wire.Marshaler.
func (p HeaderPackage) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendStructTag(b, 5)
	b, err := p.Backbone.AppendWire(b)
	if err != nil {
		return nil, err
	}
	if b, err = wire.AppendReflect(b, p.HeaderCfg); err != nil {
		return nil, err
	}
	if b, err = wire.AppendReflect(b, p.Arch); err != nil {
		return nil, err
	}
	b = appendParamBlobs(b, p.HeaderParams)
	return wire.AppendReflect(b, p.Masks)
}

// DecodeWire implements wire.Unmarshaler.
func (p *HeaderPackage) DecodeWire(d *wire.Dec) error {
	if err := d.Struct("core.HeaderPackage", 5); err != nil {
		return err
	}
	if err := p.Backbone.DecodeWire(d); err != nil {
		return err
	}
	if err := d.Reflect(&p.HeaderCfg); err != nil {
		return err
	}
	if err := d.Reflect(&p.Arch); err != nil {
		return err
	}
	var err error
	if p.HeaderParams, err = decodeParamBlobs(d, "HeaderPackage.HeaderParams", p.HeaderParams); err != nil {
		return err
	}
	return d.Reflect(&p.Masks)
}

// --- importance payloads -------------------------------------------

func appendF32Planes(b []byte, planes [][]float32) []byte {
	b = wire.AppendListTag(b, len(planes))
	for _, p := range planes {
		b = wire.AppendF32s(b, p)
	}
	return b
}

func decodeF32Planes(d *wire.Dec, what string, prev [][]float32) ([][]float32, error) {
	n, err := d.ListLen(what)
	if err != nil {
		return nil, err
	}
	planes := listTarget(prev, n)
	for i := range planes {
		if planes[i], err = d.F32s(what, planes[i]); err != nil {
			return nil, err
		}
	}
	return planes, nil
}

// AppendWire implements wire.Marshaler.
func (u ImportanceUpload) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendStructTag(b, 2)
	b = wire.AppendInt(b, int64(u.DeviceID))
	return appendF32Planes(b, u.Layers), nil
}

// DecodeWire implements wire.Unmarshaler.
func (u *ImportanceUpload) DecodeWire(d *wire.Dec) error {
	if err := d.Struct("core.ImportanceUpload", 2); err != nil {
		return err
	}
	id, err := d.Int("ImportanceUpload.DeviceID")
	if err != nil {
		return err
	}
	u.DeviceID = int(id)
	u.Layers, err = decodeF32Planes(d, "ImportanceUpload.Layers", u.Layers)
	return err
}

// AppendWire implements wire.Marshaler.
func (p PersonalizedSet) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendStructTag(b, 3)
	b = appendF32Planes(b, p.Layers)
	b = wire.AppendInt(b, int64(p.Discard))
	return wire.AppendBool(b, p.Done), nil
}

// DecodeWire implements wire.Unmarshaler.
func (p *PersonalizedSet) DecodeWire(d *wire.Dec) error {
	if err := d.Struct("core.PersonalizedSet", 3); err != nil {
		return err
	}
	var err error
	if p.Layers, err = decodeF32Planes(d, "PersonalizedSet.Layers", p.Layers); err != nil {
		return err
	}
	discard, err := d.Int("PersonalizedSet.Discard")
	if err != nil {
		return err
	}
	p.Discard = int(discard)
	p.Done, err = d.Bool("PersonalizedSet.Done")
	return err
}

// --- delta payloads ------------------------------------------------

func (p DeltaLayerPayload) appendWire(b []byte) ([]byte, error) {
	b = wire.AppendStructTag(b, 3)
	b = wire.AppendInt(b, int64(p.Mode))
	b = wire.AppendFloat64(b, p.Scale)
	return p.Delta.AppendWire(b)
}

func (p *DeltaLayerPayload) decodeWire(d *wire.Dec) error {
	if err := d.Struct("core.DeltaLayerPayload", 3); err != nil {
		return err
	}
	mode, err := d.Int("DeltaLayerPayload.Mode")
	if err != nil {
		return err
	}
	p.Mode = QuantMode(mode)
	if p.Scale, err = d.Float64("DeltaLayerPayload.Scale"); err != nil {
		return err
	}
	return p.Delta.DecodeWire(d)
}

func appendDeltaLayers(b []byte, pls []DeltaLayerPayload) ([]byte, error) {
	b = wire.AppendListTag(b, len(pls))
	var err error
	for i := range pls {
		if b, err = pls[i].appendWire(b); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func decodeDeltaLayers(d *wire.Dec, what string, prev []DeltaLayerPayload) ([]DeltaLayerPayload, error) {
	n, err := d.ListLen(what)
	if err != nil {
		return nil, err
	}
	pls := listTarget(prev, n)
	for i := range pls {
		if err := pls[i].decodeWire(d); err != nil {
			return nil, err
		}
	}
	return pls, nil
}

// AppendWire implements wire.Marshaler.
func (u DeltaUpload) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendStructTag(b, 3)
	b = wire.AppendInt(b, int64(u.DeviceID))
	b = wire.AppendInt(b, int64(u.Round))
	return appendDeltaLayers(b, u.Layers)
}

// DecodeWire implements wire.Unmarshaler.
func (u *DeltaUpload) DecodeWire(d *wire.Dec) error {
	if err := d.Struct("core.DeltaUpload", 3); err != nil {
		return err
	}
	id, err := d.Int("DeltaUpload.DeviceID")
	if err != nil {
		return err
	}
	u.DeviceID = int(id)
	round, err := d.Int("DeltaUpload.Round")
	if err != nil {
		return err
	}
	u.Round = int(round)
	u.Layers, err = decodeDeltaLayers(d, "DeltaUpload.Layers", u.Layers)
	return err
}

// AppendWire implements wire.Marshaler.
func (dd DownlinkDelta) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendStructTag(b, 4)
	b = wire.AppendInt(b, int64(dd.Round))
	b = wire.AppendInt(b, int64(dd.Discard))
	b = wire.AppendBool(b, dd.Done)
	return appendDeltaLayers(b, dd.Layers)
}

// DecodeWire implements wire.Unmarshaler.
func (dd *DownlinkDelta) DecodeWire(d *wire.Dec) error {
	if err := d.Struct("core.DownlinkDelta", 4); err != nil {
		return err
	}
	round, err := d.Int("DownlinkDelta.Round")
	if err != nil {
		return err
	}
	dd.Round = int(round)
	discard, err := d.Int("DownlinkDelta.Discard")
	if err != nil {
		return err
	}
	dd.Discard = int(discard)
	if dd.Done, err = d.Bool("DownlinkDelta.Done"); err != nil {
		return err
	}
	dd.Layers, err = decodeDeltaLayers(d, "DownlinkDelta.Layers", dd.Layers)
	return err
}

// --- raw shard -----------------------------------------------------

// AppendWire implements wire.Marshaler.
func (r RawShard) AppendWire(b []byte) ([]byte, error) {
	b = wire.AppendStructTag(b, 4)
	b = wire.AppendInt(b, int64(r.DeviceID))
	b = wire.AppendListTag(b, len(r.X))
	for _, row := range r.X {
		b = wire.AppendF64s(b, row)
	}
	b = wire.AppendInts(b, r.Y)
	return wire.AppendF64s(b, r.Histogram), nil
}

// DecodeWire implements wire.Unmarshaler.
func (r *RawShard) DecodeWire(d *wire.Dec) error {
	if err := d.Struct("core.RawShard", 4); err != nil {
		return err
	}
	id, err := d.Int("RawShard.DeviceID")
	if err != nil {
		return err
	}
	r.DeviceID = int(id)
	n, err := d.ListLen("RawShard.X")
	if err != nil {
		return err
	}
	r.X = listTarget(r.X, n)
	for i := range r.X {
		if r.X[i], err = d.F64s("RawShard.X", r.X[i]); err != nil {
			return err
		}
	}
	if r.Y, err = d.Ints("RawShard.Y", r.Y); err != nil {
		return err
	}
	r.Histogram, err = d.F64s("RawShard.Histogram", r.Histogram)
	return err
}
