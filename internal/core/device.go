package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"acme/internal/chaos"
	"acme/internal/cluster"
	"acme/internal/data"
	"acme/internal/importance"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/transport"
	"acme/internal/wire"
)

// fullImportanceBatches is the device's per-round minibatch budget for
// a from-scratch importance recomputation (the legacy fixed budget).
// defaultIncrementalBatches is how many new batches an incremental
// round folds.
const (
	fullImportanceBatches     = 8
	defaultIncrementalBatches = 2
)

// errEvicted ends a device loop whose edge evicted it (Byzantine
// detection crossed the strike limit): the device exits without
// reporting — the collector was told not to wait via MEMBER-GONE.
var errEvicted = errors.New("core: device evicted by edge-side detection")

// liarFor returns the Byzantine corruptor for a device, or nil for an
// honest one. The first Fleet.Byzantine.Count device IDs lie.
func (s *System) liarFor(devID int) *chaos.Liar {
	b := s.Cfg.Fleet.Byzantine
	if !b.Enabled() || devID >= b.Count {
		return nil
	}
	return &chaos.Liar{
		Strategy: chaos.Strategy(b.Strategy),
		Prob:     b.Prob,
		Factor:   b.Factor,
		Seed:     s.Cfg.ByzantineSeed(),
		Device:   devID,
	}
}

// runDevice is one device: it uploads its statistics and shared shard,
// receives its customized model, refines the header locally, and
// participates in the Phase 2-2 importance loop.
func (s *System) runDevice(ctx context.Context, edgeID, devIdx int) error {
	dev := s.devices[devIdx]
	name := dev.Name()
	edge := edgeName(edgeID)
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 3000 + int64(dev.ID)))
	local := s.devTrain[devIdx]
	ses := transport.NewSession(name, s.Net)

	// 1. Upload attributes and the shared-data shard.
	ds := DeviceStats{
		ID: dev.ID, VCPUs: dev.VCPUs, GPU: dev.GPU,
		Storage: dev.Storage, Profile: dev.Profile, NumSamples: local.Len(),
	}
	if err := s.send(transport.KindStats, name, edge, ds); err != nil {
		return err
	}
	nShared := int(s.Cfg.SharedFraction * float64(local.Len()))
	if nShared < 4 {
		nShared = 4
	}
	probe := data.Probe(local, nShared, rng)
	shard := RawShard{DeviceID: dev.ID, X: probe.X, Y: probe.Y, Histogram: local.ClassHistogram()}
	// The paper assumes the edge already stores this 10-20% shared slice
	// (§IV-A); the simulation ships it at setup under the provisioning
	// kind, which Table I accounting excludes.
	if err := s.send(transport.KindProvision, name, edge, shard); err != nil {
		return err
	}

	// 2. Receive the customized model.
	var header *nas.HeaderModel
	var pkg HeaderPackage
	if err := ses.Receive(ctx, func(msg transport.Message) (done bool, err error) {
		if msg.Kind != transport.KindHeader {
			return false, fmt.Errorf("transport: %s expected %v from protocol, got %v from %s",
				name, transport.KindHeader, msg.Kind, msg.From)
		}
		header, pkg, err = s.modelFromFrame(msg.Payload)
		return true, err
	}); err != nil {
		return err
	}
	return s.deviceRefineAndReport(ctx, ses, edgeID, devIdx, rng, header, pkg, 0)
}

// runDeviceRejoin re-enters a churned device mid-run: instead of the
// setup handshake it sends a RESYNC-REQUEST, receives the model
// package back as a dense re-seed tagged with its rejoin round, and
// runs the remaining loop rounds with cold delta state (its first
// upload travels dense, the edge's first downlink to it too; every
// round after that is sparse again).
func (s *System) runDeviceRejoin(ctx context.Context, edgeID, devIdx int) error {
	dev := s.devices[devIdx]
	// A fresh seed stream: the original instance's position in its
	// stream died with it.
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 4000 + int64(dev.ID)))
	ses := transport.NewSession(dev.Name(), s.Net)
	startRound, header, pkg, err := s.resync(ctx, ses, edgeName(edgeID), dev.ID, true)
	if err != nil {
		return err
	}
	return s.deviceRefineAndReport(ctx, ses, edgeID, devIdx, rng, header, pkg, startRound)
}

// resync is the handshake every re-entering device opens with, cold
// (runDeviceRejoin) or warm from a snapshot (resumeDevice): announce the
// fresh instance with a RESYNC-REQUEST and wait for the edge's dense
// re-seed. The re-seed's round stamp — the round this device re-enters
// at — is returned, and with it, for a cold device, the model built from
// the re-seed (a warm one keeps its checkpointed model and reads only
// the stamp). Traffic addressed to this device's dead predecessor (a
// downlink or cutoff the edge sent before it learned of the churn,
// delivered here because the listener rebound the same address) can
// still be in flight — it is dropped instead of treated as a protocol
// violation.
func (s *System) resync(ctx context.Context, ses *transport.Session, edge string, devID int, cold bool) (round int, header *nas.HeaderModel, pkg HeaderPackage, err error) {
	if err := ses.SendControl(edge, wire.ControlRecord{
		Type: wire.ControlResyncRequest, Node: ses.Node(), Device: devID,
	}); err != nil {
		return 0, nil, pkg, err
	}
	err = ses.Receive(ctx, func(msg transport.Message) (done bool, err error) {
		if msg.Kind != transport.KindHeader || msg.From != edge {
			return false, nil // stray predecessor traffic: dropped unread
		}
		round = msg.Round
		if cold {
			header, pkg, err = s.modelFromFrame(msg.Payload)
		}
		return true, err
	})
	return round, header, pkg, err
}

// modelFromFrame decodes a model package and builds the device's model
// from it. It runs inside the receive handler: a quantized parameter
// blob is decoded zero-copy (ParamBlob.Quant aliases the payload), so
// the blobs are only readable until the frame is released. The model
// holds its own copy of every value, and the package comes back without
// its blobs — shape, candidate and configs only — so nothing a device
// keeps for the rest of its life points into a pooled buffer.
func (s *System) modelFromFrame(payload []byte) (*nas.HeaderModel, HeaderPackage, error) {
	var pkg HeaderPackage
	if err := s.decode(payload, &pkg); err != nil {
		return nil, HeaderPackage{}, err
	}
	header, err := buildDeviceHeader(pkg)
	pkg.Backbone.Params, pkg.HeaderParams = nil, nil
	return header, pkg, err
}

// buildDeviceHeader reconstructs the device's model from a received
// package, with the backbone frozen for Phase 2-2.
func buildDeviceHeader(pkg HeaderPackage) (*nas.HeaderModel, error) {
	backbone, err := DecodeBackbone(pkg.Backbone)
	if err != nil {
		return nil, err
	}
	pkg.HeaderCfg.TrainBackbone = false // Phase 2-2 freezes the backbone
	return DecodeHeader(pkg, backbone)
}

// deviceRefineAndReport is the device's life after it holds a model:
// local refinement of the coarse header, the Phase 2-2 loop from
// startRound, final evaluation, optional checkpoint, and the report to
// the collector. rng must be the same stream the caller used for its
// setup so the no-churn path consumes random draws in the legacy order.
func (s *System) deviceRefineAndReport(ctx context.Context, ses *transport.Session, edgeID, devIdx int, rng *rand.Rand, model *nas.HeaderModel, pkg HeaderPackage, startRound int) error {
	dev := s.devices[devIdx]

	// The backbone is frozen for the rest of this device's life, so its
	// representations of the local and test samples are computed here,
	// once, and every later pass — refinement, importance folds, round
	// training, both evaluations — starts from them. This is the one
	// place a fresh, a rejoining and a restored device all pass through.
	header, err := model.Frozen()
	if err != nil {
		return err
	}
	local, err := model.Featurize(s.devTrain[devIdx])
	if err != nil {
		return err
	}
	test, err := model.Featurize(s.devTest[devIdx])
	if err != nil {
		return err
	}

	// 3. Local refinement of the coarse header.
	if err := header.TrainLocal(local, s.Cfg.LocalEpochs, s.Cfg.LocalBatch, s.Cfg.LocalLR, rng); err != nil {
		return err
	}
	accCoarse, err := nn.Evaluate(header, test.X, test.Y)
	if err != nil {
		return err
	}

	// 4. Single-loop refinement (Algorithm 2, device side).
	if err := s.deviceLoop(ctx, ses, dev, edgeID, rng, local, header, pkg, startRound); err != nil {
		if errors.Is(err, errEvicted) {
			// Evicted by the edge's Byzantine detector: exit silently —
			// the collector already heard MEMBER-GONE and a report now
			// would race the run's shutdown.
			return nil
		}
		return err
	}
	accFinal, err := nn.Evaluate(header, test.X, test.Y)
	if err != nil {
		return err
	}

	if s.Cfg.CheckpointDir != "" {
		if err := SaveDeviceCheckpoint(s.Cfg.CheckpointDir, dev.ID, model.Backbone, model, pkg.Backbone.Candidate); err != nil {
			return err
		}
	}

	report := DeviceReport{
		DeviceID:       dev.ID,
		EdgeID:         edgeID,
		Width:          pkg.Backbone.W,
		Depth:          pkg.Backbone.D,
		AccuracyCoarse: accCoarse,
		AccuracyFinal:  accFinal,
		Energy:         dev.Profile.Energy(pkg.Backbone.W, pkg.Backbone.D),
		BackboneParams: header.Backbone.ActiveParamCount(),
		HeaderParams:   header.ActiveParamCount(),
	}
	return s.send(transport.KindReport, ses.Node(), "collector", report)
}

// deviceRounds is one device's Phase 2-2 loop state; its methods are
// the steps deviceLoop strings together. What a round produces — the
// importance set, the encoded upload, the decoded downlink — passes
// between steps as values and is never kept here, so a device blocked
// on its edge holds no round's buffers.
type deviceRounds struct {
	s      *System
	ses    *transport.Session
	dev    cluster.Device
	edge   string
	rng    *rand.Rand
	local  *data.Dataset
	header *nas.FrozenHeader
	pkg    HeaderPackage

	sampling bool // rounds come by ROUND-INVITE instead of self-pacing
	last     int  // the most recent round played; startRound−1 before the first

	// delta: uploads travel as deltas against the previous round's,
	// through enc (off with DeltaImportance off, or top-k on).
	delta   bool
	enc     deltaEncoder
	downDec deltaDecoder
	liar    *chaos.Liar
	acc     importance.Accumulator
	// refresh > 0 makes importance incremental (see deviceLoop);
	// prefolded is how many batches the previous round folded ahead.
	refresh, prefolded int

	// buf retains recent encoded uploads for SESSION-RESUME
	// retransmission; inert (zero retain) unless checkpointing is on.
	// resumed flips once a restarted edge announced itself, widening
	// what the waits tolerate.
	buf     uplinkBuffer
	resumed bool
}

// deviceLoop runs the Phase 2-2 single loop on the device side from
// startRound: next round → importance → encode upload → send (or
// recover) → prefold → await downlink → apply and snapshot. Both
// participation modes run this one loop; they differ only in how the
// next round number is obtained (nextRound). It ends when the
// self-paced round budget is spent, on a Done downlink (round budget or
// convergence), or on a Done ROUND-CUTOFF (the edge's end-of-run
// broadcast to members the final downlink did not reach). With
// DeltaImportance on, uploads after the first round travel as sparse
// deltas against the previous round's payload and the personalized set
// comes back as a delta against the previous downlink; top-k
// sparsification keeps its legacy uplink payload (already sparse). With
// ImportanceRefreshPeriod > 1, importance is incremental: only
// defaultIncrementalBatches new minibatches are folded into the running
// accumulator per round — speculatively, while the in-flight upload
// travels and the edge aggregates the cluster — with a full recompute
// every refresh-period rounds to bound the drift from folding batches
// against slightly stale parameters. A ROUND-CUTOFF from the edge
// means this round combined without us: the uplink delta state
// restarts cold (the edge dropped our upload) and the loop moves on.
// local holds the Featurize rows of the device's samples, the input
// header runs over.
//
// With checkpointing on, every upload is encoded once and retained in
// the replay buffer, a restarted edge's SESSION-RESUME triggers a
// byte-exact retransmission, and the re-run rounds' duplicates — both
// re-invites for rounds already played and downlinks already applied —
// are dropped unread, so a killed-and-restored edge finishes with
// reports identical to the uninterrupted run.
func (s *System) deviceLoop(ctx context.Context, ses *transport.Session, dev cluster.Device, edgeID int, rng *rand.Rand, local *data.Dataset, header *nas.FrozenHeader, pkg HeaderPackage, startRound int) error {
	d := &deviceRounds{
		s: s, ses: ses, dev: dev, edge: edgeName(edgeID),
		rng: rng, local: local, header: header, pkg: pkg,
		sampling: s.Cfg.Fleet.Sampling(),
		last:     startRound - 1,
		delta:    s.Cfg.Wire.DeltaImportance && !s.topK(),
		enc:      deltaEncoder{mode: s.Cfg.Wire.Quantization},
		liar:     s.liarFor(dev.ID),
		buf:      uplinkBuffer{retain: s.retainRounds()},
	}
	// Incremental folding is self-paced only. It does not compose with
	// participation gaps: the accumulator would mix batches from
	// parameters many rounds apart, so an invited device computes
	// importance from scratch for every round it plays.
	if s.Cfg.ImportanceRefreshPeriod > 1 && !d.sampling {
		d.refresh = s.Cfg.ImportanceRefreshPeriod
	}
	for {
		t, ok, err := d.nextRound(ctx)
		if err != nil || !ok {
			return err
		}
		drs := DeviceRoundStat{DeviceID: dev.ID, Round: t}
		kind, payload, raw, err := d.prepareUpload(t, &drs)
		if err != nil {
			return err
		}
		out, err := d.upload(ctx, t, kind, payload, raw)
		if err != nil {
			return err
		}
		if !out.cut {
			err = d.prefold(t, &drs)
		}
		s.recordDeviceRound(drs)
		if err == nil && !out.cut {
			out, err = d.awaitDownlink(ctx, t)
		}
		if err != nil || out.done {
			return err
		}
		if out.cut {
			continue // the edge combined this round without us
		}
		if err := d.apply(t, out); err != nil || out.final {
			return err
		}
	}
}

// topK reports whether importance uploads are top-k sparsified.
func (s *System) topK() bool {
	return s.Cfg.Wire.TopKFraction > 0 && s.Cfg.Wire.TopKFraction < 1
}

// coldUplink restarts the uplink delta chain: the edge dropped (or
// never had) its shadow of our last upload, so the next one re-seeds it
// dense.
func (d *deviceRounds) coldUplink() {
	d.enc = deltaEncoder{mode: d.s.Cfg.Wire.Quantization}
}

// nextRound obtains the round this device plays next — the one place
// the participation modes differ. Full participation is an implicit
// invite: the round after the last, no message sent (so not one wire
// byte moves), until the round budget is spent; under sampling it is
// whatever the edge's next ROUND-INVITE names. ok false ends the loop.
func (d *deviceRounds) nextRound(ctx context.Context) (t int, ok bool, err error) {
	if d.sampling {
		if t, ok, err = d.awaitInvite(ctx); err != nil || !ok {
			return 0, false, err
		}
	} else if t = d.last + 1; t >= d.s.Cfg.Phase2Rounds {
		return 0, false, nil
	}
	if t != d.last+1 {
		// Participation gap — this round is not adjacent to the last one
		// played: both delta-shadow chains restart cold, mirroring the
		// reset the edge derives from its own lastSampled history, so a
		// resampled device re-seeds dense with no extra signaling.
		d.coldUplink()
		d.downDec = deltaDecoder{}
	}
	d.last = t
	// Deterministic straggler injection for cutoff benchmarks and
	// tests: one configured device computes late every round.
	if p := d.s.Cfg.Straggler; p.SlowDeviceDelay > 0 && d.dev.ID == p.SlowDeviceID {
		select {
		case <-time.After(p.SlowDeviceDelay):
		case <-ctx.Done():
			return 0, false, ctx.Err()
		}
	}
	return t, true, nil
}

// sessionControl handles the control records that mean the same
// whatever the device is waiting for; handled false leaves rec to the
// caller. fromEdge says the sender is this device's own edge.
func (d *deviceRounds) sessionControl(rec wire.ControlRecord, fromEdge bool) (handled bool, err error) {
	switch {
	case rec.Type == wire.ControlMemberGone && fromEdge:
		// Evicted: the edge's detector crossed the strike limit on our
		// uploads, so nothing more is coming. Exit without reporting.
		return true, errEvicted
	case rec.Type == wire.ControlSessionResume && fromEdge:
		// The edge restarted from its checkpoint and re-runs the loop
		// from rec.Round: whatever uploads it held for those rounds died
		// with it, so retransmit our buffered copies and keep waiting.
		d.resumed = true
		return true, d.buf.resend(d.s, d.ses.Node(), d.edge, rec.Round)
	case d.s.Cfg.Checkpoint.Enabled() && (rec.Type == wire.ControlJoin || rec.Type == wire.ControlLeave):
		// Link lifecycle noise from a crashing or restarting peer's
		// transport. In a checkpointed run the edge's death is not the
		// end of the session — anything final still arrives as a Done
		// cutoff before the link goes down — so wait on.
		return true, nil
	}
	return false, nil
}

// awaitInvite waits for the edge's next ROUND-INVITE — or the word
// that the run is over (ok false).
func (d *deviceRounds) awaitInvite(ctx context.Context) (t int, ok bool, err error) {
	err = d.ses.Receive(ctx, func(msg transport.Message) (bool, error) {
		if msg.Kind != transport.KindControl && d.resumed && msg.From == d.edge && msg.Round <= d.last && isDownlink(msg.Kind) {
			// A restarted edge re-ran a round this device already
			// applied; the duplicate downlink is byte-identical to
			// the copy the shadow advanced through. Drop it unread.
			return false, nil
		}
		if msg.Kind != transport.KindControl || msg.From != d.edge {
			return false, fmt.Errorf("unexpected %v from %s while awaiting a round invite", msg.Kind, msg.From)
		}
		rec, err := transport.ParseControl(msg)
		if err != nil {
			return false, err
		}
		if handled, err := d.sessionControl(rec, true); handled {
			return false, err
		}
		switch rec.Type {
		case wire.ControlRoundInvite:
			if d.s.Cfg.Checkpoint.Enabled() && rec.Round <= d.last {
				// A restarted edge re-running a round already played:
				// the retransmitted upload buffer answers the
				// re-invite and the duplicate downlink is dropped
				// above — not a new participation.
				return false, nil
			}
			t, ok = rec.Round, true
			return true, nil
		case wire.ControlRoundCutoff:
			// A round we were cut from (the edge dropped our uplink
			// shadow) or, with Done, the end-of-run broadcast.
			d.coldUplink()
			return rec.Done, nil
		}
		return false, fmt.Errorf("unexpected %v control from %s while awaiting a round invite", rec.Type, msg.From)
	})
	return t, ok, err
}

// isDownlink reports whether kind carries a personalized set.
func isDownlink(kind transport.Kind) bool {
	return kind == transport.KindPersonalizedSet || kind == transport.KindImportanceDownDelta
}

// prepareUpload brings the importance accumulator up to round t and
// turns its average into the bytes to upload.
func (d *deviceRounds) prepareUpload(t int, drs *DeviceRoundStat) (kind transport.Kind, payload []byte, raw int, err error) {
	s := d.s
	start := time.Now()
	if d.refresh == 0 || t%d.refresh == 0 {
		// Full refresh: reset and recompute over the complete batch
		// budget — bitwise identical to the legacy from-scratch path.
		d.acc.Reset()
		drs.Batches, err = d.acc.FoldBatches(d.header, d.local, s.Cfg.LocalBatch, fullImportanceBatches, d.rng)
	} else if d.prefolded == 0 {
		// Incremental round whose prefold folded nothing (an empty
		// or sub-batch-size local dataset): fold on the critical
		// path so the upload still reflects this round's budget.
		drs.Batches, err = d.acc.FoldBatches(d.header, d.local, s.Cfg.LocalBatch, defaultIncrementalBatches, d.rng)
	}
	if err != nil {
		return 0, nil, 0, err
	}
	d.prefolded = 0
	set, err := d.acc.Average()
	if err != nil {
		return 0, nil, 0, err
	}
	drs.ImportanceNS = time.Since(start).Nanoseconds()
	// Byzantine corruption touches only the wire copy: the device's
	// own training state stays honest, so an inflated or fabricated
	// upload poisons the cluster's aggregate, not the liar itself.
	layers := set.Layers
	if d.liar != nil {
		layers = d.liar.Corrupt(t, layers)
	}
	kind = transport.KindImportanceSet
	var val any
	if d.delta {
		up, err := d.enc.encode(d.dev.ID, t, layers)
		if err != nil {
			return 0, nil, 0, err
		}
		kind, val = transport.KindImportanceDelta, up
	} else {
		up := ImportanceUpload{DeviceID: d.dev.ID}
		if s.topK() {
			up.Sparse = sparsifySet(layers, s.Cfg.Wire.TopKFraction)
		} else if s.Cfg.Wire.Quantization != QuantLossless {
			if up.Quant, err = quantizeLayers(layers, s.Cfg.Wire.Quantization); err != nil {
				return 0, nil, 0, err
			}
		} else {
			up.Layers = quantizeSet(layers)
		}
		val = up
	}
	// Encode once: the same bytes go on the wire and (when
	// checkpointing is on) into the replay buffer, so a
	// SESSION-RESUME retransmission is bitwise identical.
	payload, raw, err = s.encodePayload(kind, val)
	return kind, payload, raw, err
}

// upload sends round t's encoded upload. A cut outcome means the round
// is over for this device with no downlink to wait for — the edge
// already combined without it — and, with done, that the whole run is.
func (d *deviceRounds) upload(ctx context.Context, t int, kind transport.Kind, payload []byte, raw int) (downlinkOutcome, error) {
	d.buf.add(t, kind, payload, raw)
	sendErr := d.s.sendRaw(kind, d.ses.Node(), d.edge, t, payload, raw)
	if sendErr == nil {
		return downlinkOutcome{}, nil
	}
	// An undeliverable upload on a straggling round usually
	// means the edge already cut us — possibly on its final
	// round, with its ROUND-CUTOFF as its last word before
	// shutting down (a departed edge fails sends fast). Read
	// that explanation out of the inbox instead of dying with
	// an unreported device.
	return d.recoverFromLostUplink(ctx, t, sendErr)
}

// recoverFromLostUplink explains a failed round-t upload send: if the
// edge already cut this device's round — its ROUND-CUTOFF, delivered
// before any LEAVE on the same link, is sitting in the inbox — the
// device can finalize (cut and done) or move to the next round (cut)
// instead of failing unreported. With checkpointing on, the dead uplink
// can instead mean the edge is mid-restart: its SESSION-RESUME triggers
// a retransmission of the buffered uploads (this round's included) and
// hands the device back to the normal downlink wait (not cut). Anything
// else surfaces the original send error.
func (d *deviceRounds) recoverFromLostUplink(ctx context.Context, round int, sendErr error) (out downlinkOutcome, err error) {
	wait := 250 * time.Millisecond
	if d.s.Cfg.Checkpoint.Enabled() {
		// A kill-and-restore cycle (process restart, snapshot read,
		// redial backoff) takes far longer than a cutoff notice: give the
		// restarted edge's SESSION-RESUME time to arrive.
		wait = 15 * time.Second
	}
	grace, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	// The handler settles err itself, so an error out of Receive is the
	// grace period running out.
	if rerr := d.ses.Receive(grace, func(msg transport.Message) (bool, error) {
		if msg.Kind != transport.KindControl || msg.From != d.edge {
			return false, nil // already in a failure path: drop stray traffic
		}
		rec, rerr := transport.ParseControl(msg)
		if rerr != nil {
			return false, nil
		}
		switch {
		case rec.Type == wire.ControlMemberGone:
			// Evicted by the edge's Byzantine detector mid-failure: the
			// eviction notice explains the dead uplink.
			err = errEvicted
		case rec.Type == wire.ControlSessionResume:
			// The edge restarted from its checkpoint — that is what
			// killed the send. Retransmit everything it may have lost.
			if err = d.buf.resend(d.s, d.ses.Node(), d.edge, rec.Round); err == nil {
				d.resumed = true
			}
		case rec.Type == wire.ControlRoundCutoff && (rec.Round == round || rec.Done):
			// The edge combined without us and dropped our uplink
			// shadow; restart the encoder cold like the in-band cutoff
			// path does. A Done cutoff counts whatever round it stamps:
			// the end-of-run broadcast may trail our self-paced round.
			d.coldUplink()
			out = downlinkOutcome{cut: true, done: rec.Done}
		default:
			return false, nil
		}
		return true, nil
	}); rerr != nil {
		return out, fmt.Errorf("upload for round %d undeliverable: %w", round, sendErr)
	}
	return out, err
}

// prefold is the compute/communication overlap: while the upload is in
// flight and the edge waits for the rest of the cluster, fold the next
// incremental round's batches. They use the current parameters (one
// TrainLocal step behind where a non-overlapped fold would run) — the
// approximation the refresh period bounds. Wasted only when the edge
// declares this round final.
func (d *deviceRounds) prefold(t int, drs *DeviceRoundStat) (err error) {
	if d.refresh == 0 || t+1 >= d.s.Cfg.Phase2Rounds || (t+1)%d.refresh == 0 {
		return nil
	}
	start := time.Now()
	d.prefolded, err = d.acc.FoldBatches(d.header, d.local, d.s.Cfg.LocalBatch, defaultIncrementalBatches, d.rng)
	drs.PrefoldBatches = d.prefolded
	drs.PrefoldNS = time.Since(start).Nanoseconds()
	return err
}

// downlinkOutcome is what a round resolved to once its upload was on
// its way (or found undeliverable): either a cutoff (cut, with done
// marking the end of the run) or a decoded personalized set.
type downlinkOutcome struct {
	cut     bool
	done    bool
	layers  [][]float64
	discard int
	final   bool
}

// awaitDownlink blocks until round t's downlink (or its cutoff)
// arrives from the edge, working the session control plane while it
// waits: the personalized set — dense, or delta-encoded against the
// previous round's downlink — or a ROUND-CUTOFF control record when
// this device straggled past the quorum deadline. Anything from the
// wrong sender, a duplicate, or an out-of-order round is a protocol
// violation named after the sender and kind — mirroring the edge's
// upload hardening — except inside a restarted edge's resume window,
// where the re-run rounds' re-invites and duplicate downlinks
// (byte-identical to the copies already applied) are dropped unread.
func (d *deviceRounds) awaitDownlink(ctx context.Context, t int) (out downlinkOutcome, err error) {
	err = d.ses.Receive(ctx, func(msg transport.Message) (bool, error) {
		if msg.Kind != transport.KindControl {
			if d.resumed && msg.Round < t && isDownlink(msg.Kind) {
				// A restarted edge re-sent a downlink for a round this
				// device already applied. The retransmitted round replays
				// the exact upload bytes, so this copy is byte-identical to
				// the one the shadow already advanced through.
				return false, nil
			}
			// The decoded layers are fresh float64 copies either way, so
			// nothing aliases the frame once this returns.
			var err error
			out.layers, out.discard, out.final, err = d.s.decodePersonalized(&d.downDec, msg, d.edge, t)
			return true, err
		}
		rec, err := transport.ParseControl(msg)
		if err != nil {
			return false, err
		}
		fromEdge := msg.From == d.edge
		if handled, err := d.sessionControl(rec, fromEdge); handled {
			return false, err
		}
		switch {
		case d.s.Cfg.Checkpoint.Enabled() && rec.Type == wire.ControlRoundInvite && fromEdge && rec.Round <= t:
			// A restarted edge re-running sampled rounds this device
			// already played: the retransmitted upload buffer answers
			// the re-invite, so it is not a new participation.
			return false, nil
		case rec.Type != wire.ControlRoundCutoff || !fromEdge:
			return false, fmt.Errorf("unexpected %v control from %s during refinement round %d", rec.Type, msg.From, t)
		case rec.Round != t && !rec.Done:
			return false, fmt.Errorf("round-cutoff from %s carries round %d during round %d", msg.From, rec.Round, t)
		}
		// A Done cutoff is accepted regardless of its round stamp:
		// the edge's end-of-loop backstop stamps its own final
		// round, which can trail a rejoined device's self-paced
		// position, but its meaning — no more downlinks, ever — is
		// position-independent.
		// The edge combined this round without our upload and
		// invalidated its copy of our uplink shadow; restart the
		// encoder cold so the next upload re-seeds it dense. The
		// downlink shadow pair is still in sync (the edge did not
		// advance it either), so it stays.
		d.coldUplink()
		out = downlinkOutcome{cut: true, done: rec.Done}
		return true, nil
	})
	return out, err
}

// apply installs round t's personalized set, trains one local epoch on
// it and, with checkpointing on, snapshots the result.
func (d *deviceRounds) apply(t int, out downlinkOutcome) error {
	s := d.s
	if err := d.header.ApplyImportance(&importance.Set{Layers: out.layers}, out.discard); err != nil {
		return err
	}
	if err := d.header.TrainLocal(d.local, 1, s.Cfg.LocalBatch, s.Cfg.LocalLR, d.rng); err != nil {
		return err
	}
	if s.Cfg.Checkpoint.Enabled() && !out.final && (t+1)%s.Cfg.Checkpoint.EveryN() == 0 {
		// End-of-round device snapshot: the trained model a restarted
		// device warm-rejoins with (resumeDevice). Synchronous — a
		// device's round is compute-dominated, and the loop must not
		// advance past state it claims to have persisted.
		return s.writeDeviceSnapshot(d.dev.ID, t+1, d.header.HeaderModel, d.pkg)
	}
	return nil
}

// decodePersonalized validates and decodes a round-t personalized-set
// downlink on the device side, mirroring the edge's upload hardening:
// a message from anyone but the device's own edge, a duplicate or
// out-of-order delta round, or an unexpected kind is a protocol
// violation named after the sender and kind. A dense downlink resets
// the delta shadow; a delta downlink advances it.
func (s *System) decodePersonalized(downDec *deltaDecoder, msg transport.Message, edge string, round int) ([][]float64, int, bool, error) {
	if msg.From != edge {
		return nil, 0, false, fmt.Errorf("%v from %s in round %d: personalized sets must come from %s",
			msg.Kind, msg.From, round, edge)
	}
	switch msg.Kind {
	case transport.KindPersonalizedSet:
		var ps PersonalizedSet
		if err := s.decode(msg.Payload, &ps); err != nil {
			return nil, 0, false, fmt.Errorf("decode %v from %s in round %d: %w", msg.Kind, msg.From, round, err)
		}
		layers, err := ps.layers()
		if err != nil {
			return nil, 0, false, fmt.Errorf("%v from %s: %w", msg.Kind, msg.From, err)
		}
		// A dense downlink does not advance the delta shadow, so drop
		// it: a later delta must fail ("no shadow round") rather than
		// silently reconstruct against a stale round.
		*downDec = deltaDecoder{}
		return layers, ps.Discard, ps.Done, nil
	case transport.KindImportanceDownDelta:
		var dd DownlinkDelta
		if err := s.decode(msg.Payload, &dd); err != nil {
			return nil, 0, false, fmt.Errorf("decode %v from %s in round %d: %w", msg.Kind, msg.From, round, err)
		}
		if dd.Round != round {
			return nil, 0, false, fmt.Errorf("%v from %s carries round %d during round %d (duplicate or out-of-order downlink)",
				msg.Kind, msg.From, dd.Round, round)
		}
		layers, err := downDec.applyLayers(dd.Layers)
		if err != nil {
			return nil, 0, false, fmt.Errorf("%v from %s: %w", msg.Kind, msg.From, err)
		}
		return layers, dd.Discard, dd.Done, nil
	default:
		return nil, 0, false, fmt.Errorf("unexpected %v from %s during refinement round %d", msg.Kind, msg.From, round)
	}
}
