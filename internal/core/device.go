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

// errEvicted ends a device loop whose edge evicted it with a
// MEMBER-GONE (Byzantine detection crossed the strike limit): the
// device exits without reporting.
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
		Seed:     s.Cfg.Seed,
		Device:   devID,
	}
}

// runDevice is one device: it uploads its statistics and shared shard,
// receives its customized model, refines the header locally, and
// participates in the Phase 2-2 importance loop.
func (s *System) runDevice(ctx context.Context, edgeID, devIdx int) error {
	dev := s.devices[devIdx]
	name := dev.Name()
	edge := s.edgeNames[edgeID]
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

	// 2. Receive the customized model. A holder of a shard that its
	// cluster holds more than once learns whether it owns the shard's rows
	// before anything is decoded (shared_rows.go).
	var header *nas.HeaderModel
	var pkg HeaderPackage
	var hold holding
	if err := receive(ctx, ses, &deviceProtocol.model, 0, func(msg transport.Message, _ wire.ControlRecord) (done bool, err error) {
		hold = s.rows.arrive(s.shardOf(edgeID, devIdx))
		header, pkg, err = s.modelFromFrame(msg, &hold)
		return true, err
	}); err != nil {
		hold.abandon()
		return err
	}
	return s.deviceRefineAndReport(ctx, ses, edgeID, devIdx, rng, header, pkg, hold, 0)
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
	startRound, header, pkg, err := s.resync(ctx, ses, s.edgeNames[edgeID], dev.ID, true)
	if err != nil {
		return err
	}
	return s.deviceRefineAndReport(ctx, ses, edgeID, devIdx, rng, header, pkg, holding{}, startRound)
}

// resync is the handshake every re-entering device opens with, cold
// (runDeviceRejoin) or warm from a snapshot (resumeDevice): announce the
// fresh instance with a RESYNC-REQUEST and wait for the edge's dense
// re-seed. The re-seed's round stamp — the round this device re-enters
// at, which is its new life — is returned, and with it, for a cold
// device, the model built from the re-seed (a warm one keeps its
// checkpointed model and reads only the stamp). The life begins at the
// re-seed: a downlink, cutoff or invite its edge stamped before it (one
// the edge sent the dead predecessor before it learned of the churn,
// delivered here because the listener rebound the same address) is
// stamped for an older life, and dropped.
func (s *System) resync(ctx context.Context, ses *transport.Session, edge string, devID int, cold bool) (round int, header *nas.HeaderModel, pkg HeaderPackage, err error) {
	if err := ses.SendControl(edge, wire.ControlRecord{
		Type: wire.ControlResyncRequest, Node: ses.Node(), Device: devID,
	}); err != nil {
		return 0, nil, pkg, err
	}
	err = receive(ctx, ses, &deviceProtocol.resync, 0, func(msg transport.Message, _ wire.ControlRecord) (done bool, err error) {
		switch {
		case msg.From != edge:
			return false, errRefused
		case msg.Kind != transport.KindHeader:
			return false, nil // sent before the re-seed: not this life's
		}
		round = msg.Round
		if cold {
			header, pkg, err = s.modelFromFrame(msg, nil)
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
//
// hold is nil for a device that featurizes alone. A holder of a shared
// shard keeps its backbone's encoding, still aliasing the frame, for the
// comparison that decides whether it may take the owner's rows: it
// retains the frame, and drops it once it is done with the encodings
// (holding.done).
// Only the owner (and a holder that writes checkpoints, which encode the
// backbone again) decodes the backbone here.
func (s *System) modelFromFrame(msg transport.Message, hold *holding) (*nas.HeaderModel, HeaderPackage, error) {
	var pkg HeaderPackage
	if err := wire.Decode(msg.Payload, &pkg); err != nil {
		return nil, HeaderPackage{}, fmt.Errorf("decode %v: %w", transport.KindHeader, err)
	}
	decode := true
	if hold != nil && hold.e != nil {
		msg.Retain()
		hold.enc, hold.frame = pkg.Backbone, msg
		decode = hold.owner || s.Cfg.Checkpoint.Enabled()
	}
	var backbone *nn.Backbone
	var header *nas.HeaderModel
	var err error
	if decode {
		backbone, err = s.decodeBackbone(pkg.Backbone)
	}
	if err == nil {
		header, err = buildDeviceHeader(pkg, backbone)
	}
	pkg.Backbone.Params, pkg.HeaderParams = nil, nil
	return header, pkg, err
}

// decodeBackbone is DecodeBackbone for one of s's devices, counted in
// s.backboneDecodes.
func (s *System) decodeBackbone(asg BackboneAssignment) (*nn.Backbone, error) {
	s.backboneDecodes.Add(1)
	return DecodeBackbone(asg)
}

// buildDeviceHeader reconstructs the device's header from a received
// package over backbone (nil for a device that holds none), with the
// backbone frozen for Phase 2-2.
func buildDeviceHeader(pkg HeaderPackage, backbone *nn.Backbone) (*nas.HeaderModel, error) {
	pkg.HeaderCfg.TrainBackbone = false // Phase 2-2 freezes the backbone
	return DecodeHeader(pkg, backbone)
}

// deviceRefineAndReport is the device's life after it holds a model:
// local refinement of the coarse header, the Phase 2-2 loop from
// startRound, final evaluation, optional checkpoint, and the report to
// its edge. rng must be the same stream the caller used for its setup
// so the no-churn path consumes random draws in the legacy order. hold
// is the device's place among its shard's holders (zero for one that
// featurizes alone: a private shard, a rejoined or restored device). One
// past its setup life that gives up sends its edge a LEAVE stamped with
// its life (loopState.ofLife), since TCP.Close stamps its own 0.
func (s *System) deviceRefineAndReport(ctx context.Context, ses *transport.Session, edgeID, devIdx int, rng *rand.Rand, model *nas.HeaderModel, pkg HeaderPackage, hold holding, startRound int) (err error) {
	dev := s.devices[devIdx]
	defer func() {
		if err != nil && startRound > 0 {
			_ = ses.SendControl(s.edgeNames[edgeID], wire.ControlRecord{Type: wire.ControlLeave, Node: ses.Node(), Round: startRound})
		}
	}()

	// The backbone is frozen for the rest of this device's life, so its
	// representations of the local and test samples are computed here,
	// once (or taken from the cluster's owner of the same shard, see
	// deviceFeatures), and every later pass — refinement, importance
	// folds, round training, both evaluations — starts from them. This is
	// the one place a fresh, a rejoining and a restored device all pass
	// through.
	rows, err := s.deviceFeatures(ctx, edgeID, devIdx, model, hold)
	if err != nil {
		return err
	}
	local, test := rows.local, rows.test
	header, err := model.Frozen(pkg.Backbone.Cfg)
	if err != nil {
		return err
	}
	// Nothing runs the backbone after this, so the device drops it (and
	// its forward scratch): a snapshot carries it as encoded here, once.
	if s.Cfg.Checkpoint.Enabled() {
		pkg.Backbone = EncodeBackbone(model.Backbone, pkg.Backbone.W, pkg.Backbone.D,
			pkg.Backbone.Candidate, QuantLossless)
	}
	model.Backbone = nil

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
			// the edge no longer waits for this device's report.
			return nil
		}
		return err
	}
	accFinal, err := nn.Evaluate(header, test.X, test.Y)
	if err != nil {
		return err
	}

	if s.Cfg.Checkpoint.Enabled() {
		if err := s.writeDeviceSnapshot(deviceModelFile(s.Cfg.Checkpoint.Path, dev.ID), dev.ID, s.Cfg.Phase2Rounds, model, pkg); err != nil {
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
		BackboneParams: rows.backboneParams,
		HeaderParams:   header.ActiveParamCount(),
	}
	return s.send(transport.KindReport, ses.Node(), s.edgeNames[edgeID], report)
}

// deviceRounds is one device's Phase 2-2 loop state; its methods are
// the steps deviceLoop strings together. What a round produces — the
// importance sum and set, the encoded upload, the decoded downlink —
// passes between steps as values and is never kept here, so a device
// blocked on its edge holds its header's weights and its two delta
// shadows, and no round's buffers.
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
	life     int  // the round this life entered the loop at: startRound (stale)
	last     int  // the most recent round played; startRound−1 before the first

	// delta: uploads travel as delta records against the previous
	// round's, through enc (Wire.deltaRecords).
	delta   bool
	enc     deltaEncoder
	downDec deltaDecoder
	liar    *chaos.Liar
	acc     importance.Accumulator
	// rows lends a round's importance rows and wire copies: from the
	// first fold of the upload's sum to its encoding, and from the
	// downlink's decode to its apply. It holds nothing between rounds.
	// sums lends the importance sum of incremental folding, which lives
	// from one refresh to the next; it stays empty otherwise.
	rows, sums nn.Lease
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
// broadcast to members the final downlink did not reach). When
// importance sets travel as delta records (Wire.deltaRecords: any
// quantized mode, top-k, or DeltaImportance), uploads after the first
// round travel as sparse deltas against the previous round's payload
// and the personalized set comes back as a delta against the previous
// downlink; a top-k upload is sparse from its first round on. With
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
	d := s.newDeviceRounds(ses, dev, s.edgeNames[edgeID], rng, local, header, pkg, startRound)
	defer d.release()
	for {
		t, ok, err := d.nextRound(ctx)
		if err != nil || !ok {
			return err
		}
		drs := DeviceRoundStat{DeviceID: dev.ID, Round: t}
		kind, buf, raw, err := d.prepareUpload(t, &drs)
		if err != nil {
			return err
		}
		out, err := d.upload(ctx, t, kind, buf, raw)
		if err != nil {
			return err
		}
		if !out.cut {
			err = d.prefold(t, &drs)
		}
		s.recordDeviceRound(drs)
		if err == nil && !out.cut {
			out, err = d.await(ctx, &deviceProtocol.downlink, t)
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

// newDeviceRounds is the loop state of a device entering the loop at
// startRound.
func (s *System) newDeviceRounds(ses *transport.Session, dev cluster.Device, edge string, rng *rand.Rand, local *data.Dataset, header *nas.FrozenHeader, pkg HeaderPackage, startRound int) *deviceRounds {
	d := &deviceRounds{
		s: s, ses: ses, dev: dev, edge: edge,
		rng: rng, local: local, header: header, pkg: pkg,
		sampling: s.Cfg.Fleet.Sampling(),
		life:     startRound,
		last:     startRound - 1,
		delta:    s.Cfg.Wire.deltaRecords(),
		enc:      s.uplinkEncoder(),
		liar:     s.liarFor(dev.ID),
		buf:      uplinkBuffer{armed: s.Cfg.Checkpoint.Enabled()},
	}
	// Incremental folding is self-paced only. It does not compose with
	// participation gaps: the accumulator would mix batches from
	// parameters many rounds apart, so an invited device computes
	// importance from scratch for every round it plays.
	if s.Cfg.ImportanceRefreshPeriod > 1 && !d.sampling {
		d.refresh = s.Cfg.ImportanceRefreshPeriod
	}
	// One code path, two lifetimes: a sum recomputed every round is the
	// round's, and goes out as its average; an incremental one outlives
	// the rounds between refreshes.
	if d.refresh > 0 {
		d.acc.UseLease(&d.sums)
	} else {
		d.acc.UseLease(&d.rows)
	}
	return d
}

// release gives back what the loop still borrows when it ends: the
// rows, the sums and the storage of both delta shadows.
func (d *deviceRounds) release() {
	d.rows.Release()
	d.sums.Release()
	d.enc.reset()
	d.downDec.reset()
}

// uplinkEncoder is a fresh uplink delta chain: top-k's float16 encoder,
// or whole sets in the run's quantization mode.
func (s *System) uplinkEncoder() deltaEncoder {
	if s.Cfg.Wire.topK() {
		return deltaEncoder{topK: s.Cfg.Wire.TopKFraction}
	}
	return deltaEncoder{mode: s.Cfg.Wire.Quantization}
}

// nextRound obtains the round this device plays next — the one place
// the participation modes differ. Full participation is an implicit
// invite: the round after the last, no message sent (so not one wire
// byte moves), until the round budget is spent; under sampling it is
// whatever the edge's next ROUND-INVITE names. ok false ends the loop.
func (d *deviceRounds) nextRound(ctx context.Context) (t int, ok bool, err error) {
	if d.sampling {
		out, err := d.await(ctx, &deviceProtocol.invite, d.last+1)
		if err != nil || out.done {
			return 0, false, err
		}
		t = out.round
	} else if t = d.last + 1; t >= d.s.Cfg.Phase2Rounds {
		return 0, false, nil
	}
	if t != d.last+1 {
		// Participation gap — this round is not adjacent to the last one
		// played: both delta-shadow chains restart cold, mirroring the
		// reset the edge derives from its own lastSampled history, so a
		// resampled device re-seeds dense with no extra signaling.
		d.enc.reset()
		d.downDec.reset()
	}
	d.last = t
	// Deterministic straggler injection for cutoff benchmarks and
	// tests: the system's straggler computes late every round.
	if p := d.s.Cfg.Straggler; p.SlowDeviceDelay > 0 && d.dev.ID == d.s.stragglerID {
		select {
		case <-time.After(p.SlowDeviceDelay):
		case <-ctx.Done():
			return 0, false, ctx.Err()
		}
	}
	return t, true, nil
}

// prepareUpload brings the importance accumulator up to round t and
// turns its average into the bytes to upload.
func (d *deviceRounds) prepareUpload(t int, drs *DeviceRoundStat) (kind transport.Kind, buf *wire.Buffer, raw int, err error) {
	s := d.s
	defer d.rows.Release()
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
	set, err := d.acc.AverageInto(&d.rows)
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
		val = ImportanceUpload{DeviceID: d.dev.ID, Layers: quantizeSetInto(&d.rows, layers)}
	}
	// Encode once: the same bytes go on the wire and (when
	// checkpointing is on) into the replay buffer, so a
	// SESSION-RESUME retransmission is bitwise identical.
	buf, raw, err = s.encodePayload(kind, val)
	return kind, buf, raw, err
}

// upload sends round t's encoded upload, passing its lease on to the
// network. A cut outcome means the round is over for this device with
// no downlink to wait for — the edge already combined without it — and,
// with done, that the whole run is. An undeliverable upload usually
// means the edge already cut us, its ROUND-CUTOFF (sent before any LEAVE
// on the link) its last word before shutting down, or, with
// checkpointing on, that it is mid-restart, its SESSION-RESUME on the
// way: the grace wait reads that out of the inbox instead of dying
// unreported, and without it the send error surfaces.
func (d *deviceRounds) upload(ctx context.Context, t int, kind transport.Kind, buf *wire.Buffer, raw int) (downlinkOutcome, error) {
	d.buf.add(t, kind, buf.B, raw)
	sendErr := d.s.sendLeased(kind, d.ses.Node(), d.edge, t, buf, raw)
	if sendErr == nil {
		return downlinkOutcome{}, nil
	}
	wait := 250 * time.Millisecond
	if d.s.Cfg.Checkpoint.Enabled() {
		// A kill-and-restore cycle (process restart, snapshot read,
		// redial backoff) takes far longer than a cutoff notice: give the
		// restarted edge's SESSION-RESUME time to arrive.
		wait = 15 * time.Second
	}
	grace, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	out, err := d.await(grace, &deviceProtocol.grace, t)
	if err != nil && !out.heard {
		return out, fmt.Errorf("upload for round %d undeliverable: %w", t, sendErr)
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

// downlinkOutcome is what a device's wait on its edge resolved to: a
// cutoff (cut, with done marking the end of the run), a decoded
// personalized set, or, for the invite wait, the invited round (or done).
// heard marks an outcome a message settled, not the wait's context.
type downlinkOutcome struct {
	cut     bool
	done    bool
	layers  [][]float64
	discard int
	final   bool
	round   int
	heard   bool
}

// await is the device's wait on its edge in phase ph of its table: the
// invite for round t (the round after the last one played), round t's
// downlink, or, once round t's upload could not be sent, the grace wait.
func (d *deviceRounds) await(ctx context.Context, ph *row, t int) (out downlinkOutcome, err error) {
	err = receive(ctx, d.ses, ph, t, func(msg transport.Message, rec wire.ControlRecord) (bool, error) {
		done, err := d.onMessage(ph, t, &out, msg, rec)
		out.heard = done || err != nil
		return done, err
	})
	return out, err
}

// onMessage is await's handler for what the phase's row hands it,
// judged on what the table cannot see. Everything counts only from the
// device's own edge, and a downlink, cutoff or invite stamped for an
// older life is dropped (stale). In a checkpointed run the edge's death
// is not the end of the session (anything final arrives as a Done cutoff
// first), so JOIN and LEAVE are waited through. Once the edge resumed,
// a downlink for a round already applied is dropped unread: it is
// byte-identical to the copy the shadow advanced through.
func (d *deviceRounds) onMessage(ph *row, t int, out *downlinkOutcome, msg transport.Message, rec wire.ControlRecord) (bool, error) {
	if msg.From != d.edge {
		if ph == &deviceProtocol.grace {
			return false, nil // already in a failure path: drop stray traffic
		}
		return false, errRefused
	}
	downlink := ph == &deviceProtocol.downlink
	ckpt := d.s.Cfg.Checkpoint.Enabled()
	switch {
	case msg.Kind != transport.KindControl:
		if d.stale(msg.Round) || d.resumed && msg.Round < t {
			return false, nil
		}
		if !downlink {
			return false, errRefused
		}
		// The decoded layers are leased float64 copies either way, so
		// nothing aliases the frame once this returns.
		var err error
		out.layers, out.discard, out.final, err = d.s.decodePersonalized(&d.downDec, msg, t, &d.rows, d.header.Params())
		return true, err
	case rec.Type == wire.ControlJoin || rec.Type == wire.ControlLeave:
		if ckpt {
			return false, nil
		}
		return false, errRefused
	case (rec.Type == wire.ControlRoundCutoff || rec.Type == wire.ControlRoundInvite) && d.stale(rec.Round):
		return false, nil
	case rec.Type == wire.ControlMemberGone:
		// Evicted: the edge's detector crossed the strike limit on our
		// uploads, so nothing more is coming. Exit without reporting.
		return true, errEvicted
	case rec.Type == wire.ControlSessionResume:
		// The edge restarted from its checkpoint and re-runs the loop
		// from rec.Round, so retransmit our buffered uploads. That
		// explains a failed send; any other wait goes on.
		d.resumed = true
		return ph == &deviceProtocol.grace, d.buf.resend(d.s, d.ses.Node(), d.edge, rec.Round)
	case rec.Type == wire.ControlRoundInvite:
		if ckpt && rec.Round <= d.last {
			return false, nil // a re-run round already played: the retransmission answers it
		}
		if downlink {
			return false, errRefused
		}
		out.round = rec.Round
		return true, nil
	}
	// A ROUND-CUTOFF: the edge combined a round without our upload, or,
	// with Done, the run is over — whatever round it stamps: the edge's
	// end-of-loop backstop stamps its own final round, which can trail a
	// rejoined device's self-paced position.
	invite := ph == &deviceProtocol.invite
	if !invite && rec.Round != t && !rec.Done {
		if !downlink {
			return false, nil
		}
		return false, fmt.Errorf("round-cutoff from %s carries round %d during round %d", msg.From, rec.Round, t)
	}
	// Restart the uplink encoder cold so the next upload re-seeds the
	// edge's shadow dense (or, under top-k, sparse against the all-zero
	// shadow). The downlink shadow pair is still in sync (the edge did
	// not advance it either), so it stays.
	d.enc.reset()
	if invite {
		out.done = rec.Done
		return rec.Done, nil
	}
	*out = downlinkOutcome{cut: true, done: rec.Done}
	return true, nil
}

// stale reports whether the edge stamped a message for a round before this
// life began: it was meant for a dead predecessor of the same name.
func (d *deviceRounds) stale(round int) bool { return round < d.life }

// apply installs round t's personalized set, trains one local epoch on
// it and, with checkpointing on, snapshots the result.
func (d *deviceRounds) apply(t int, out downlinkOutcome) error {
	s := d.s
	err := d.header.ApplyImportance(&importance.Set{Layers: out.layers}, out.discard)
	d.rows.Release()
	if err != nil {
		return err
	}
	if err := d.header.TrainLocal(d.local, 1, s.Cfg.LocalBatch, s.Cfg.LocalLR, d.rng); err != nil {
		return err
	}
	if s.Cfg.Checkpoint.Enabled() && !out.final {
		// End-of-round device snapshot: the trained model a restarted
		// device warm-rejoins with (resumeDevice). Synchronous — a
		// device's round is compute-dominated, and the loop must not
		// advance past state it claims to have persisted.
		return s.writeDeviceSnapshot(s.CheckpointFile(d.dev.Name()), d.dev.ID, t+1, d.header.HeaderModel, d.pkg)
	}
	return nil
}

// decodePersonalized validates and decodes a round-t personalized-set
// downlink from the device's own edge, mirroring the edge's upload
// hardening: a duplicate or out-of-order delta round is a protocol
// violation named after the sender and kind. msg is one of the two
// downlink kinds, the only ones the device's table hands its handler.
// A dense downlink resets the delta shadow; a delta downlink advances
// it. The layers, and a dense downlink's float32 decode, are cut from
// l; the float32 rows are shaped like params, so that a downlink of that
// shape decodes into them in place (nil params leave the decoder to
// allocate).
func (s *System) decodePersonalized(downDec *deltaDecoder, msg transport.Message, round int, l *nn.Lease, params []*nn.Param) ([][]float64, int, bool, error) {
	if msg.Kind == transport.KindPersonalizedSet {
		ps := PersonalizedSet{Layers: make([][]float32, len(params))}
		for i, p := range params {
			ps.Layers[i] = l.F32s(p.NumParams())
		}
		if err := wire.Decode(msg.Payload, &ps); err != nil {
			return nil, 0, false, fmt.Errorf("decode %v from %s in round %d: %w", msg.Kind, msg.From, round, err)
		}
		// A dense downlink does not advance the delta shadow, so drop
		// it: a later delta must fail ("no shadow round") rather than
		// silently reconstruct against a stale round.
		downDec.reset()
		return dequantizeSetInto(l, ps.Layers), ps.Discard, ps.Done, nil
	}
	var dd DownlinkDelta
	if err := wire.Decode(msg.Payload, &dd); err != nil {
		return nil, 0, false, fmt.Errorf("decode %v from %s in round %d: %w", msg.Kind, msg.From, round, err)
	}
	if dd.Round != round {
		return nil, 0, false, fmt.Errorf("%v from %s carries round %d during round %d (duplicate or out-of-order downlink)",
			msg.Kind, msg.From, dd.Round, round)
	}
	layers, err := downDec.apply(dd.Layers, false, l)
	if err != nil {
		return nil, 0, false, fmt.Errorf("%v from %s: %w", msg.Kind, msg.From, err)
	}
	return layers, dd.Discard, dd.Done, nil
}
