package core

import (
	"acme/internal/chaos"
	"acme/internal/energy"
	"acme/internal/importance"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/wire"
)

// The wire schemas of every record this package sends or checkpoints.
// Each record states its exported fields once, in declaration order, in
// its WireFields method; the wire.Fields cursor that runs it encodes,
// decodes or sizes the record from that one list. The edge's loop state
// (loopState) is the exception: a snapshot frames its live delta
// shadows, encoders and sets directly, so their schemas state the
// unexported fields that travel. The nested types other packages own
// have their schemas here as plain functions, so that those packages do
// not import wire. A frame kind that is sent or written by value also
// has a WireValue method, so that wire.Encode and wire.RawSize take it
// by value; the edge writes its snapshot by pointer.
//
// Decoding reuses the target's slices where their capacity allows and
// carves the rest from the arena, so a steady-state decode loop (the
// edge folding one upload per device per round into the same scratch
// value) allocates nothing per message. The golden frames
// (golden_test.go) pin every schema's bytes and raw size.

// WireFields states the blob's schema.
func (p *ParamBlob) WireFields(f *wire.Fields) {
	f.Struct(6)
	f.Int(&p.Rows)
	f.Int(&p.Cols)
	f.F64s(&p.Data)
	f.Int((*int)(&p.Mode))
	f.Bytes(&p.Quant)
	f.F64(&p.Scale)
}

// WireFields states the upload's schema.
func (s *DeviceStats) WireFields(f *wire.Fields) {
	f.Struct(6)
	f.Int(&s.ID)
	f.Int(&s.VCPUs)
	f.F64(&s.GPU)
	f.F64(&s.Storage)
	profileFields(f, &s.Profile)
	f.Int(&s.NumSamples)
}

// WireValue lets wire.Encode and wire.RawSize take the upload by value.
func (s DeviceStats) WireValue(f *wire.Fields) { s.WireFields(f) }

// WireFields states the upload's schema.
func (s *ClusterStats) WireFields(f *wire.Fields) {
	f.Struct(4)
	f.Int(&s.EdgeID)
	f.F64(&s.MinStorage)
	profileFields(f, &s.Profile)
	f.Ints(&s.DeviceIDs)
}

// WireValue lets wire.Encode and wire.RawSize take the upload by value.
func (s ClusterStats) WireValue(f *wire.Fields) { s.WireFields(f) }

// WireFields states the shard's schema.
func (r *RawShard) WireFields(f *wire.Fields) {
	f.Struct(4)
	f.Int(&r.DeviceID)
	wire.List(f, &r.X, (*wire.Fields).F64s)
	f.Ints(&r.Y)
	f.F64s(&r.Histogram)
}

// WireValue lets wire.Encode and wire.RawSize take the shard by value.
func (r RawShard) WireValue(f *wire.Fields) { r.WireFields(f) }

// WireFields states the assignment's schema.
func (a *BackboneAssignment) WireFields(f *wire.Fields) {
	f.Struct(8)
	f.F64(&a.W)
	f.Int(&a.D)
	f.Int(&a.ActiveDepth)
	backboneConfigFields(f, &a.Cfg)
	wire.Records(f, &a.Params)
	wire.List(f, &a.HeadMasks, (*wire.Fields).Bools)
	wire.List(f, &a.NeuronMasks, (*wire.Fields).Bools)
	candidateFields(f, &a.Candidate)
}

// WireValue lets wire.Encode and wire.RawSize take the assignment by
// value.
func (a BackboneAssignment) WireValue(f *wire.Fields) { a.WireFields(f) }

// WireFields states the package's schema.
func (p *HeaderPackage) WireFields(f *wire.Fields) {
	f.Struct(5)
	p.Backbone.WireFields(f)
	headerConfigFields(f, &p.HeaderCfg)
	architectureFields(f, &p.Arch)
	wire.Records(f, &p.HeaderParams)
	headerMasksFields(f, &p.Masks)
}

// WireValue lets wire.Encode and wire.RawSize take the package by value.
func (p HeaderPackage) WireValue(f *wire.Fields) { p.WireFields(f) }

// WireFields states the upload's schema.
func (u *ImportanceUpload) WireFields(f *wire.Fields) {
	f.Struct(2)
	f.Int(&u.DeviceID)
	wire.List(f, &u.Layers, (*wire.Fields).F32s)
}

// WireValue lets wire.Encode and wire.RawSize take the upload by value.
func (u ImportanceUpload) WireValue(f *wire.Fields) { u.WireFields(f) }

// WireFields states the set's schema.
func (p *PersonalizedSet) WireFields(f *wire.Fields) {
	f.Struct(3)
	wire.List(f, &p.Layers, (*wire.Fields).F32s)
	f.Int(&p.Discard)
	f.Bool(&p.Done)
}

// WireValue lets wire.Encode and wire.RawSize take the set by value.
func (p PersonalizedSet) WireValue(f *wire.Fields) { p.WireFields(f) }

// WireFields states the report's schema.
func (r *DeviceReport) WireFields(f *wire.Fields) {
	f.Struct(9)
	f.Int(&r.DeviceID)
	f.Int(&r.EdgeID)
	f.F64(&r.Width)
	f.Int(&r.Depth)
	f.F64(&r.AccuracyCoarse)
	f.F64(&r.AccuracyFinal)
	f.F64(&r.Energy)
	f.Int(&r.BackboneParams)
	f.Int(&r.HeaderParams)
}

// WireValue lets wire.Encode and wire.RawSize take the report by value.
func (r DeviceReport) WireValue(f *wire.Fields) { r.WireFields(f) }

// WireFields states the delta layer's schema.
func (p *DeltaLayerPayload) WireFields(f *wire.Fields) {
	f.Struct(3)
	f.Int((*int)(&p.Mode))
	f.F64(&p.Scale)
	p.Delta.WireFields(f)
}

// WireFields states the upload's schema.
func (u *DeltaUpload) WireFields(f *wire.Fields) {
	f.Struct(3)
	f.Int(&u.DeviceID)
	f.Int(&u.Round)
	wire.Records(f, &u.Layers)
}

// WireValue lets wire.Encode and wire.RawSize take the upload by value.
func (u DeltaUpload) WireValue(f *wire.Fields) { u.WireFields(f) }

// WireFields states the downlink's schema.
func (d *DownlinkDelta) WireFields(f *wire.Fields) {
	f.Struct(4)
	f.Int(&d.Round)
	f.Int(&d.Discard)
	f.Bool(&d.Done)
	wire.Records(f, &d.Layers)
}

// WireValue lets wire.Encode and wire.RawSize take the downlink by
// value.
func (d DownlinkDelta) WireValue(f *wire.Fields) { d.WireFields(f) }

// WireFields states the packed layer's schema.
func (p *packedLayer) WireFields(f *wire.Fields) {
	f.Struct(3)
	f.Int((*int)(&p.mode))
	f.F64(&p.scale)
	f.Bytes(&p.data)
}

// WireFields states the uplink shadow's schema.
func (d *deltaDecoder) WireFields(f *wire.Fields) {
	f.Struct(2)
	f.Bool(&d.warm)
	d.layerFields(f)
}

// WireFields states the downlink encoder's schema. Its top-k fraction
// is the uplink's policy alone, so it does not travel.
func (e *deltaEncoder) WireFields(f *wire.Fields) {
	f.Struct(3)
	f.Bool(&e.warm)
	f.Int((*int)(&e.mode))
	e.layerFields(f)
}

// layerFields frames the shadow's packed layers after its warm flag. A
// cold shadow's layers are stale and travel as an empty list.
func (s *shadow) layerFields(f *wire.Fields) {
	var layers []packedLayer
	if s.warm {
		layers = s.prev
	}
	wire.Records(f, &layers)
	if s.warm {
		s.prev = layers
	}
}

// WireFields states the snapshot's schema: its loop state inline, nine
// of the 16 fields.
func (s *EdgeSnapshot) WireFields(f *wire.Fields) {
	f.Struct(16)
	f.String(&s.RunTag)
	f.Int(&s.EdgeID)
	f.Int(&s.Round)
	s.Pkg.WireFields(f)
	wire.List(f, &s.Sim, (*wire.Fields).F64s)
	s.loop.fields(f)
	detectorFields(f, &s.Detector)
	f.Bool(&s.HaveDetector)
}

// fields frames the loop state. A nil prev (no set kept) travels as a
// false flag after the list.
func (l *loopState) fields(f *wire.Fields) {
	f.Bools(&l.departed)
	f.Bools(&l.doneTold)
	f.Ints(&l.rejoinRound)
	f.Ints(&l.lastSampled)
	wire.Records(f, &l.shadows)
	wire.List(f, &l.downEncs, func(f *wire.Fields, e **deltaEncoder) {
		if *e == nil {
			*e = new(deltaEncoder)
		}
		(*e).WireFields(f)
	})
	wire.List(f, &l.prev, setFields)
	kept := l.prev != nil
	f.Bool(&kept)
	if !kept {
		l.prev = nil
	}
	f.Int(&l.lastRound)
}

// setFields frames one combined set as its layers; a nil set travels
// as an empty one.
func setFields(f *wire.Fields, s **importance.Set) {
	var layers [][]float64
	if *s != nil {
		layers = (*s).Layers
	}
	wire.List(f, &layers, (*wire.Fields).F64s)
	switch {
	case *s != nil:
		(*s).Layers = layers
	case layers != nil:
		*s = &importance.Set{Layers: layers}
	}
}

// WireFields states the snapshot's schema.
func (s *DeviceSnapshot) WireFields(f *wire.Fields) {
	f.Struct(4)
	f.String(&s.RunTag)
	f.Int(&s.DeviceID)
	f.Int(&s.Round)
	s.Package.WireFields(f)
}

// WireValue lets wire.Encode and wire.RawSize take the snapshot by
// value.
func (s DeviceSnapshot) WireValue(f *wire.Fields) { s.WireFields(f) }

func backboneConfigFields(f *wire.Fields, c *nn.BackboneConfig) {
	f.Struct(6)
	f.Int(&c.InputDim)
	f.Int(&c.NumPatches)
	f.Int(&c.DModel)
	f.Int(&c.NumHeads)
	f.Int(&c.Hidden)
	f.Int(&c.Depth)
}

func candidateFields(f *wire.Fields, c *pareto.Candidate) {
	f.Struct(6)
	f.F64(&c.W)
	f.Int(&c.D)
	f.F64(&c.Loss)
	f.F64(&c.Energy)
	f.F64(&c.Size)
	f.F64(&c.Accuracy)
}

func profileFields(f *wire.Fields, p *energy.Profile) {
	f.Struct(7)
	f.F64(&p.GPU)
	f.F64(&p.PowerPerUnit)
	f.F64(&p.BatchPower)
	f.F64(&p.Patches)
	f.F64(&p.BaseLatency)
	f.F64(&p.LatencyPerUnit)
	f.Int(&p.Epochs)
}

func headerConfigFields(f *wire.Fields, c *nas.HeaderConfig) {
	f.Struct(6)
	f.Int(&c.Blocks)
	f.Int(&c.Repeats)
	f.Int(&c.DModel)
	f.Int(&c.Hidden)
	f.Int(&c.NumClasses)
	f.Bool(&c.TrainBackbone)
}

func architectureFields(f *wire.Fields, a *nas.Architecture) {
	f.Struct(1)
	wire.List(f, &a.Blocks, func(f *wire.Fields, g *nas.BlockGene) {
		f.Struct(4)
		f.Int(&g.In1)
		f.Int(&g.In2)
		f.Int((*int)(&g.Op1))
		f.Int((*int)(&g.Op2))
	})
}

// headerMasksFields frames Ops, one [2][]bool pair of op masks per
// block per module, as lists of two-element arrays.
func headerMasksFields(f *wire.Fields, m *nas.HeaderMasks) {
	f.Struct(2)
	f.Bools(&m.Hidden)
	wire.List(f, &m.Ops, func(f *wire.Fields, module *[][2][]bool) {
		wire.List(f, module, func(f *wire.Fields, pair *[2][]bool) { wire.Array(f, pair[:], (*wire.Fields).Bools) })
	})
}

func detectorFields(f *wire.Fields, s *chaos.State) {
	f.Struct(3)
	wire.List(f, &s.Strikes, func(f *wire.Fields, e *chaos.StrikeEntry) {
		f.Struct(2)
		f.Int(&e.ID)
		f.Int(&e.N)
	})
	f.Ints(&s.Evicted)
	wire.List(f, &s.Prev, func(f *wire.Fields, e *chaos.SampleEntry) {
		f.Struct(2)
		f.Int(&e.ID)
		f.F64s(&e.Values)
	})
}
