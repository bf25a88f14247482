package core

import (
	"context"
	"fmt"
	"time"

	"acme/internal/aggregate"
	"acme/internal/importance"
	"acme/internal/tensor"
	"acme/internal/transport"
	"acme/internal/wire"
)

// edgeRound is one Phase 2-2 round on one edge: the loop state plus
// what only this round owns. Its methods are the round's steps in
// protocol order — checkpoint, invite, gather (fold and control as
// uploads and control records arrive), screen, combine, downlink,
// cutoffNotices — each feature in the one step it belongs to.
type edgeRound struct {
	*edgeState
	t  int
	rs Phase2RoundStat
	// folded tracks which positions already contributed this round,
	// for the post-restore duplicate-tolerance window.
	folded []bool
	// missing marks the devices the gather ended without.
	missing []bool
	// comb is built once the round's invitees are known, before the
	// gather that feeds it.
	comb *aggregate.Combiner
}

// edgeRounds is the round loop itself: a round-scoped gather per round
// with optional straggler cutoff, the control plane that lets churned
// devices resync mid-loop, and the streamed downlinks.
// When checkpointing is configured it owns the background snapshot
// writer: a round hands it a marshalled snapshot and keeps going; the
// write (and its fsync, if configured) happens off the critical path.
func (s *System) edgeRounds(ctx context.Context, st *edgeState) (err error) {
	var writer *snapshotWriter
	if s.Cfg.Checkpoint.Enabled() {
		if writer, err = newSnapshotWriter(s.checkpointFile(st.name), s.Cfg.Checkpoint.Fsync); err != nil {
			return err
		}
		defer func() {
			if werr := writer.Close(); werr != nil && err == nil {
				err = werr
			}
		}()
	}
	for t := st.startRound; t < s.Cfg.Phase2Rounds; t++ {
		r := &edgeRound{
			edgeState: st, t: t,
			rs:     Phase2RoundStat{EdgeID: st.edgeID, Round: t},
			folded: make([]bool, len(st.order)),
		}
		r.checkpoint(writer)
		done, err := r.run(ctx)
		if err != nil {
			return err
		}
		s.recordPhase2Round(r.rs)
		if done {
			break
		}
	}
	st.closeOut()
	return nil
}

// checkpoint hands the background writer the loop state as the round
// finds it, at the entry round and every EveryN-th one.
func (r *edgeRound) checkpoint(writer *snapshotWriter) {
	if writer != nil && (r.t == r.startRound || r.t%r.s.Cfg.Checkpoint.EveryN() == 0) {
		// Marshal synchronously (deep copies of everything the round
		// will mutate), persist in the background.
		writer.write(r.snapshot(r.t))
	}
	r.lastRound = r.t
}

// run plays the round from invite to cutoff notices and reports
// whether it was the loop's last.
func (r *edgeRound) run(ctx context.Context) (done bool, err error) {
	expect, epoch := r.invite()
	if r.sampling && len(expect) == 0 {
		// Every sampled member churned before its invite landed:
		// nothing to gather or combine this round.
		return false, nil
	}
	if err := r.gather(ctx, expect, epoch); err != nil {
		return false, err
	}
	if err := r.screen(); err != nil {
		return false, err
	}
	if r.comb.Added() == 0 {
		// Nothing arrived (every live member resynced or left): there
		// is no combine this round. Under sampling the cut members are
		// told now — a cut invitee is blocked on this round's downlink,
		// and with no combine the usual post-combine cutoff pass never
		// runs.
		if r.sampling {
			r.cutoffNotices(r.t+1 >= r.s.Cfg.Phase2Rounds)
		}
		return false, nil
	}
	combined, done, err := r.combine()
	if err != nil {
		return false, err
	}
	busy := time.Now()
	r.downlink(combined, done)
	r.cutoffNotices(done)
	r.rs.DownlinkNS = time.Since(busy).Nanoseconds()
	return done, nil
}

// invite decides who owes this round an upload. Full participation
// expects every member that has not departed, with no message sent.
// Under sampling it builds the round from the live membership, not the
// static cluster list: draw the seeded sample, invite exactly the
// sampled devices (everyone else sits the round out without computing
// or uploading anything), and remember the registry epoch so the gather
// re-checks liveness if membership moves while invites are in flight.
func (r *edgeRound) invite() (expect []string, epoch uint64) {
	if !r.sampling {
		expect = make([]string, 0, len(r.order))
		for i := range r.order {
			if !r.departed[i] {
				expect = append(expect, r.nameByPos[i])
			}
		}
		return expect, 0
	}
	for i := range r.invited {
		r.invited[i] = false
	}
	eligible := make([]string, 0, len(r.order))
	for _, nm := range r.reg.Live() {
		p, ok := r.posByName[nm]
		if !ok || r.departed[p] || r.rejoinRound[p] > r.t {
			continue
		}
		eligible = append(eligible, nm)
	}
	for _, nm := range r.sampler.Sample(r.t, eligible) {
		p := r.posByName[nm]
		if r.lastSampled[p] != r.t-1 {
			// A participation gap breaks both delta-shadow chains; the
			// device derives the same reset from its own round gap, so
			// the pair re-seeds dense with no extra signaling.
			r.resetChains(p)
		}
		if err := r.ses.SendControl(nm, wire.ControlRecord{
			Type: wire.ControlRoundInvite, Node: nm, Device: r.idByPos[p], Round: r.t,
		}); err != nil {
			// The member churned between rounds: drop it from this
			// round and force a dense re-seed whenever it is next
			// sampled (the device missed a round either way).
			r.resetChains(p)
			r.lastSampled[p] = -1
			continue
		}
		r.lastSampled[p] = r.t
		r.invited[p] = true
		expect = append(expect, nm)
		r.rs.Sampled = append(r.rs.Sampled, r.idByPos[p])
	}
	r.rs.SampledCount = len(expect)
	return expect, r.reg.Epoch()
}

// gather collects the round's uploads through fold and control, under
// the straggler cutoff when one is configured, and marks who it ended
// without.
func (r *edgeRound) gather(ctx context.Context, expect []string, epoch uint64) error {
	// A sampled round sends a downlink to its invitees only, so only
	// their rows of Eq. 21 are computed — unless the convergence
	// monitor is on, which compares every row with the previous
	// round's.
	var read []bool
	if r.sampling && !r.monitor {
		read = r.invited
	}
	var err error
	if r.comb, err = aggregate.NewCombinerFor(r.sim, read); err != nil {
		return err
	}
	spec := transport.GatherSpec{
		Round:  r.t,
		Kinds:  []transport.Kind{transport.KindImportanceSet, transport.KindImportanceDelta},
		Expect: expect,
		Epoch:  epoch,
		Label:  fmt.Sprintf("aggregation round %d", r.t),
		// Always tolerant: churn can inject out-of-round traffic
		// with or without the cutoff — a rejoining device races
		// ahead of a cluster still mid-gather (its next-round
		// upload is buffered), and a cut straggler's late upload
		// arrives a round behind (dropped, counted). Lockstep runs
		// never produce either, so nothing is hidden there; intra-
		// round violations still fail loudly via the payload round
		// check and the combiner's duplicate rejection.
		Tolerant:  true,
		OnMessage: r.fold,
		OnControl: r.control,
	}
	if r.cutoff {
		spec.Quorum = r.s.Cfg.Straggler.Quorum
		spec.Deadline = r.s.Cfg.Straggler.Deadline
	}
	gres, err := r.ses.Gather(ctx, spec)
	if err != nil {
		return err
	}
	r.rs.GatherWallNS = gres.Wall.Nanoseconds()
	r.rs.StaleMessages = gres.Stale
	// Straggler cutoff: the round combines without the missing
	// devices. Their uplink shadows are invalid from here on — the
	// upload that would have advanced them was never folded — so
	// the next upload each sends must re-seed dense.
	r.missing = make([]bool, len(r.order))
	for _, nm := range gres.Missing {
		p := r.posByName[nm]
		r.missing[p] = true
		r.shadows[p] = deltaDecoder{}
		r.rs.CutoffCount++
	}
	return nil
}

// fold decodes one gathered upload — dense, or a delta against the
// device's previous upload — and streams it into the combiner, or, in
// detection mode, parks it for screen.
func (r *edgeRound) fold(msg transport.Message) error {
	busy := time.Now()
	var devID, p int
	var layers [][]float64
	var err error
	switch msg.Kind {
	case transport.KindImportanceSet:
		var up ImportanceUpload
		r.arena.Reset()
		if err := r.s.decodeArena(msg.Payload, &up, r.arena); err != nil {
			return fmt.Errorf("decode %v from %s in round %d: %w", msg.Kind, msg.From, r.t, err)
		}
		devID = up.DeviceID
		if p, err = posOf(r.pos, msg, devID); err != nil {
			return err
		}
		if r.folded[p] && r.inResumeWindow(r.t) {
			// Post-restore retransmission crossing an original that
			// outlived the crash in an inbox: drop the second copy.
			return nil
		}
		if len(up.Sparse) > 0 && !r.s.topK() {
			return fmt.Errorf("%v from %s (device %d): sparse payload but top-k sparsification is off", msg.Kind, msg.From, devID)
		}
		if layers, err = up.layers(r.s.Cfg.Wire.TopKFraction); err != nil {
			return fmt.Errorf("%v from %s (device %d): %w", msg.Kind, msg.From, devID, err)
		}
		// A dense upload does not advance the delta shadow, so
		// drop it: a later sparse delta from this device must
		// fail ("no shadow round") rather than silently
		// reconstruct against a stale round.
		r.shadows[p] = deltaDecoder{}
		r.rs.DenseMessages++
	case transport.KindImportanceDelta:
		var up DeltaUpload
		r.arena.Reset()
		if err := r.s.decodeArena(msg.Payload, &up, r.arena); err != nil {
			return fmt.Errorf("decode %v from %s in round %d: %w", msg.Kind, msg.From, r.t, err)
		}
		devID = up.DeviceID
		if p, err = posOf(r.pos, msg, devID); err != nil {
			return err
		}
		if up.Round != r.t {
			return fmt.Errorf("%v from %s (device %d) carries round %d during round %d",
				msg.Kind, msg.From, devID, up.Round, r.t)
		}
		if r.folded[p] && r.inResumeWindow(r.t) {
			// Duplicate delta in the resume window: applying it twice
			// would corrupt the shadow chain, so drop it before apply.
			return nil
		}
		if layers, err = r.shadows[p].apply(up); err != nil {
			return fmt.Errorf("%v from %s (device %d): %w", msg.Kind, msg.From, devID, err)
		}
		r.rs.DeltaMessages++
	}
	if r.detect != nil {
		// Detection mode: hold the upload until the gather ends —
		// a flagged one must never fold. The decoded layers are
		// fresh float64 copies with round lifetime (same contract
		// comb.Add relies on below), so buffering them is safe.
		if r.detectPending[p] != nil {
			return fmt.Errorf("%v from %s (device %d): duplicate upload for position %d", msg.Kind, msg.From, devID, p)
		}
		r.detectPending[p] = &importance.Set{Layers: layers}
		r.detectSamples[p] = r.detect.Sample(layers)
	} else if err := r.comb.Add(p, &importance.Set{Layers: layers}); err != nil {
		// A second upload for an already-folded position (device
		// retransmission) surfaces here as a combiner error rather
		// than silently replacing the first copy.
		return fmt.Errorf("%v from %s (device %d): %w", msg.Kind, msg.From, devID, err)
	}
	r.folded[p] = true
	r.rs.UploadBytes += int64(len(msg.Payload)) + transport.HeaderEstimate
	r.rs.AggregateNS += time.Since(busy).Nanoseconds()
	return nil
}

// control is the loop's churn plane: what a JOIN, a LEAVE or a
// RESYNC-REQUEST arriving mid-gather does to the round and to the
// rounds after it.
func (r *edgeRound) control(msg transport.Message, rec wire.ControlRecord) (bool, error) {
	switch rec.Type {
	case wire.ControlJoin:
		// A rejoining device announcing its fresh link:
		// advisory, the resync request carries the state change.
		return false, nil
	case wire.ControlLeave:
		p, ok := r.posByName[msg.From]
		if !ok {
			// Not a cluster member: link teardown from a peer
			// that finished its part of the run (the cloud
			// closes its transport after Phase 1) — lifecycle
			// noise, not churn.
			return false, nil
		}
		if r.rejoinRound[p] > r.t {
			// A rejoin is already pending for this device: the
			// LEAVE is its dead predecessor's shutdown
			// announcement, delivered on the old connection
			// *after* the successor's RESYNC overtook it on the
			// new one. Honoring it would re-mark the reborn
			// device departed and silently skip every downlink
			// it is waiting on (the TestChurnRejoinTCP hang).
			return false, nil
		}
		if err := r.depart(p); err != nil {
			return false, err
		}
		return true, nil
	case wire.ControlResyncRequest:
		p, ok := r.pos[rec.Device]
		if !ok || r.nameByPos[p] != msg.From {
			return false, fmt.Errorf("%v from %s for device %d outside cluster %d", rec.Type, msg.From, rec.Device, r.edgeID)
		}
		if r.departed[p] {
			// Undo the MEMBER-GONE: the member is back in the
			// loop, so the collector must wait for its report
			// again.
			if err := r.ses.SendControl("collector", wire.ControlRecord{
				Type: wire.ControlMemberBack, Node: r.name, Device: rec.Device,
			}); err != nil {
				return false, err
			}
		}
		// Dense re-seed: both directions of the device's delta
		// exchange restart cold, and the device re-enters the
		// loop next round with a fresh copy of the model
		// package (its local state died with it).
		r.resetChains(p)
		r.departed[p] = false
		r.rejoinRound[p] = r.t + 1
		r.rs.ResyncCount++
		if err := r.s.sendRound(transport.KindHeader, r.name, msg.From, r.t+1, r.pkg); err != nil {
			return false, err
		}
		return true, nil
	default:
		return false, fmt.Errorf("unexpected %v control from %s during aggregation round %d", rec.Type, msg.From, r.t)
	}
}

// screen is the Byzantine screening: score the buffered uploads, fold
// only the unflagged ones (ascending position, preserving Combine's
// exact addition order), and evict repeat offenders through the fleet
// registry. A suspect's upload is excluded from the combine —
// ResultPartial renormalizes the similarity mass over the devices that
// remain — but a suspect below the strike limit stays in the loop and
// still receives its personalized downlink. A no-op with detection off.
func (r *edgeRound) screen() error {
	if r.detect == nil {
		return nil
	}
	verdict := r.detect.Inspect(r.detectSamples)
	suspect := make(map[int]bool, len(verdict.Suspects))
	for _, p := range verdict.Suspects {
		suspect[p] = true
		r.rs.Suspects = append(r.rs.Suspects, r.idByPos[p])
	}
	for p := range r.order {
		if r.detectPending[p] == nil || suspect[p] {
			continue
		}
		if err := r.comb.Add(p, r.detectPending[p]); err != nil {
			return err
		}
	}
	for _, p := range verdict.Evicted {
		r.rs.EvictedDevices = append(r.rs.EvictedDevices, r.idByPos[p])
		// Registry eviction: epoch bump, MEMBER-GONE to the
		// collector (stop waiting for this device's report), and
		// the eviction notice to the device itself — its signal
		// to exit without reporting. The device is dropped from
		// every remaining round.
		r.reg.Leave(r.nameByPos[p])
		if err := r.depart(p); err != nil {
			return err
		}
		_ = r.ses.SendControl(r.nameByPos[p], wire.ControlRecord{
			Type: wire.ControlMemberGone, Device: r.idByPos[p], Round: r.t,
		})
	}
	for p := range r.detectPending {
		r.detectPending[p] = nil
	}
	clear(r.detectSamples)
	return nil
}

// combine finalizes Eq. 21 over what the gather folded and decides
// whether the loop ends here.
func (r *edgeRound) combine() (combined []*importance.Set, done bool, err error) {
	// The fused convergence pass only runs when convergence checking
	// is on: r.prev stays nil otherwise, which short-circuits
	// SetsDelta to +Inf.
	busy := time.Now()
	var delta float64
	if r.comb.Added() == len(r.order) {
		// Full round: identical arithmetic to the pre-session path.
		combined, delta, err = r.comb.Result(r.prev)
	} else {
		// Quorum round: fold what arrived, renormalize the
		// similarity mass over the present devices.
		combined, _, delta, err = r.comb.ResultPartial(r.prev)
	}
	if err != nil {
		return nil, false, err
	}
	r.rs.AggregateNS += time.Since(busy).Nanoseconds()
	// The loop ends at the round budget or on convergence of the
	// aggregated sets (§II-A: "repeated iteratively until
	// convergence"). The delta comes fused out of the combiner's
	// finalize pass; round 0 reports +Inf (no previous round).
	done = r.t+1 >= r.s.Cfg.Phase2Rounds
	if !done && r.monitor && delta < r.s.Cfg.ConvergenceEpsilon {
		done = true
	}
	if r.monitor {
		// The monitor is r.prev's only reader; without it the round's
		// accumulators are garbage once the downlinks are sent, and a
		// snapshot has nothing to copy.
		r.prev = combined
	}
	return combined, done, nil
}

// downSent is what sending one device's downlink came to.
type downSent struct {
	bytes   int64
	delta   bool
	skipped bool
	err     error
}

// downlink streams the personalized sets: every accumulator is final
// once the last upload folds, so each device's set is encoded
// (quantized, or delta-encoded against that device's previous
// downlink) on the worker pool and sent the moment its worker
// finishes — not behind a serial quantize-then-send loop. Each
// encoder is owned by exactly one worker, so the parallelism is
// bitwise-invisible. Cut stragglers, departed devices, and
// devices still waiting on their rejoin round are skipped: a cut
// device gets a ROUND-CUTOFF record instead, so its loop moves
// on instead of blocking on a downlink that will never come.
func (r *edgeRound) downlink(combined []*importance.Set, done bool) {
	discard := r.s.Cfg.DiscardPerRound * (r.t + 1)
	sent := make([]downSent, len(r.order))
	tensor.ParallelFor(len(r.order), func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			d := &sent[i]
			if r.missing[i] || r.departed[i] || r.rejoinRound[i] > r.t || (r.sampling && !r.invited[i]) {
				d.skipped = true
				continue
			}
			var enc *deltaEncoder
			if r.downEncs != nil {
				enc = r.downEncs[i]
			}
			d.bytes, d.delta, d.err = r.s.sendPersonalized(
				r.name, r.nameByPos[i], enc, r.t, combined[i].Layers, discard, done)
		}
	})
	for i, d := range sent {
		if d.skipped {
			continue
		}
		if d.err != nil {
			// Churn tolerance, cutoff or not: the device died
			// between uploading and its downlink (the supervised
			// link gave up or the peer announced a LEAVE). Both
			// delta shadows restart cold; a dead device re-enters
			// via resync. A transport that is broken rather than
			// churned surfaces at the next round's gather — or, on
			// the final round, as a CutoffCount in this round's
			// stats and a device that never reports (the
			// collector's timeout is the backstop).
			r.resetChains(i)
			r.rs.CutoffCount++
			// If the device is actually alive behind a transient
			// link outage, this best-effort cutoff is what stops
			// it waiting forever on the lost downlink.
			r.sendCutoff(i, r.t, done)
			continue
		}
		r.rs.DownlinkBytes += d.bytes
		if d.delta {
			r.rs.DownDeltaMessages++
		} else {
			r.rs.DownDenseMessages++
		}
		if done {
			// The downlink payload carried the Done flag: this
			// device's loop ends on its own.
			r.doneTold[i] = true
		}
	}
}

// cutoffNotices tells every device the gather ended without that its
// round is over. Best-effort: the straggler may be slow (it will read
// this and cut its round short) or dead (a supervised TCP send
// eventually gives up; the device resyncs when it returns).
func (r *edgeRound) cutoffNotices(done bool) {
	for i, cut := range r.missing {
		if cut {
			r.sendCutoff(i, r.t, done)
		}
	}
}

// sendPersonalized encodes and sends one device's round-t personalized
// set. With a non-nil delta encoder it travels as a DownlinkDelta
// against the device's previous downlink (per-layer dense fallback
// when no shadow exists or the delta would not be smaller); otherwise
// as the legacy dense/quantized PersonalizedSet. It reports the wire
// bytes sent and whether the delta form was used.
func (s *System) sendPersonalized(from, to string, enc *deltaEncoder, round int, layers [][]float64, discard int, done bool) (int64, bool, error) {
	if enc != nil {
		pls, err := enc.encodeLayers(layers)
		if err != nil {
			return 0, false, err
		}
		dd := DownlinkDelta{Round: round, Discard: discard, Done: done, Layers: pls}
		n, err := s.sendCounted(transport.KindImportanceDownDelta, from, to, round, dd)
		return n, true, err
	}
	ps := PersonalizedSet{Discard: discard, Done: done}
	var err error
	if s.Cfg.Wire.Quantization != QuantLossless {
		if ps.Quant, err = quantizeLayers(layers, s.Cfg.Wire.Quantization); err != nil {
			return 0, false, err
		}
	} else {
		ps.Layers = quantizeSet(layers)
	}
	n, err := s.sendCounted(transport.KindPersonalizedSet, from, to, round, ps)
	return n, false, err
}
