package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"acme/internal/aggregate"
	"acme/internal/chaos"
	"acme/internal/cluster"
	"acme/internal/data"
	"acme/internal/fleet"
	"acme/internal/importance"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/prune"
	"acme/internal/sched"
	"acme/internal/tensor"
	"acme/internal/transport"
	"acme/internal/wire"
)

// fullImportanceBatches is the device's per-round minibatch budget for
// a from-scratch importance recomputation (the legacy fixed budget).
// defaultIncrementalBatches is how many new batches an incremental
// round folds when Config.IncrementalBatches is unset.
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

// runCloud is Phase 1: pretrain the reference model on the public
// dataset, receive per-cluster statistics from the edges, build the
// Pareto Front Grid per cluster, distill the selected backbone, and
// distribute it (cloud-edge bidirectional interaction).
func (s *System) runCloud(ctx context.Context) error {
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 1))
	ses := transport.NewSession("cloud", s.Net)

	ref, err := s.trainReference(rng)
	if err != nil {
		return fmt.Errorf("reference model: %w", err)
	}
	gen := prune.NewGenerator(ref, s.public, s.Cfg.Distill)
	if err := gen.EnsureImportance(256, rng); err != nil {
		return fmt.Errorf("importance: %w", err)
	}

	// Gather statistical parameters from every edge server.
	edgeNames := make([]string, 0, len(s.clusters))
	for e := range s.clusters {
		edgeNames = append(edgeNames, edgeName(e))
	}
	stats := make(map[int]ClusterStats, len(s.clusters))
	if _, err := ses.Gather(ctx, transport.GatherSpec{
		Kinds:  []transport.Kind{transport.KindStats},
		Expect: edgeNames,
		Label:  "phase-1 statistics",
		OnMessage: func(msg transport.Message) error {
			var cs ClusterStats
			if err := s.decode(msg.Payload, &cs); err != nil {
				return err
			}
			stats[cs.EdgeID] = cs
			return nil
		},
	}); err != nil {
		return err
	}

	// Deterministic processing order regardless of arrival order.
	edgeIDs := make([]int, 0, len(stats))
	for id := range stats {
		edgeIDs = append(edgeIDs, id)
	}
	sort.Ints(edgeIDs)

	for _, edgeID := range edgeIDs {
		cs := stats[edgeID]
		crng := rand.New(rand.NewSource(s.Cfg.Seed + 1000 + int64(edgeID)))
		cands := s.sweepCandidates(ref, cs, crng)
		grid, err := pareto.Build(cands, s.Cfg.Pareto)
		if err != nil {
			return fmt.Errorf("edge %d: pfg: %w", edgeID, err)
		}
		selected, err := grid.Select(cs.MinStorage)
		if err != nil {
			// No feasible candidate: fall back to the smallest one so
			// the cluster still gets a model.
			selected = smallestCandidate(cands)
		}
		student, err := gen.Generate(selected.W, selected.D, crng)
		if err != nil {
			return fmt.Errorf("edge %d: distill: %w", edgeID, err)
		}
		s.recordAssignment(edgeID, selected)
		asg := EncodeBackbone(student.Backbone, selected.W, selected.D, selected, s.Cfg.Wire.Quantization)
		if err := s.send(transport.KindBackbone, "cloud", edgeName(edgeID), asg); err != nil {
			return err
		}
	}
	return nil
}

// trainReference pretrains θ₀ on the public dataset.
func (s *System) trainReference(rng *rand.Rand) (*nn.BackboneClassifier, error) {
	bb, err := nn.NewBackbone(s.Cfg.Backbone, rng)
	if err != nil {
		return nil, err
	}
	ref := nn.NewBackboneClassifier(bb, s.Cfg.NumClasses, rng)
	opt := nn.NewAdam(1e-3)
	for e := 0; e < s.Cfg.PretrainEpochs; e++ {
		if _, err := nn.TrainEpoch(ref, opt, s.public.X, s.public.Y, 16, rng); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// sweepCandidates scores the (w, d) lattice for one cluster: loss and
// accuracy on a cloud probe with masked clones (distillation happens
// only for the winner), energy from the cluster's worst-case profile,
// size from the active parameter count.
func (s *System) sweepCandidates(ref *nn.BackboneClassifier, cs ClusterStats, rng *rand.Rand) []pareto.Candidate {
	probe := data.Probe(s.public, s.Cfg.CloudProbe, rng)
	return pareto.SweepCandidates(s.Cfg.Widths, s.Cfg.Depths, func(w float64, d int) pareto.Candidate {
		bb := ref.Backbone.Clone()
		cand := pareto.Candidate{W: w, D: d}
		if err := bb.ScaleWidth(w); err != nil {
			cand.Loss = 1e9
			return cand
		}
		if err := bb.SetDepth(d); err != nil {
			cand.Loss = 1e9
			return cand
		}
		clone := &nn.BackboneClassifier{Backbone: bb, Head: ref.Head}
		loss, acc, err := nn.Score(clone, probe.X, probe.Y)
		if err != nil {
			cand.Loss = 1e9
			return cand
		}
		cand.Loss = loss
		cand.Accuracy = acc
		cand.Energy = cs.Profile.Energy(w, d)
		cand.Size = float64(bb.ActiveParamCount() + nn.CountParams(ref.Head))
		return cand
	})
}

func smallestCandidate(cands []pareto.Candidate) pareto.Candidate {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Size < best.Size {
			best = c
		}
	}
	return best
}

// runEdge is one edge server: it aggregates device statistics upward,
// receives its customized backbone, runs the Phase 2-1 header search on
// its shared dataset, distributes backbone+header to its devices, and
// then drives the Phase 2-2 single-loop aggregation (edge-device
// bidirectional single-loop interaction) over the session API: a
// round-scoped gather per round with optional straggler cutoff, plus
// the control plane that lets churned devices resync mid-loop.
func (s *System) runEdge(ctx context.Context, edgeID int) error {
	name := edgeName(edgeID)
	members := s.clusters[edgeID]
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 2000 + int64(edgeID)))
	ses := transport.NewSession(name, s.Net)

	// 1. Gather device stats and shared-data shards. Uploads are keyed
	// by device ID, so a duplicate (a retransmitting device) or an
	// upload for a device outside this cluster is rejected with an
	// error naming the sender and kind instead of silently overwriting
	// the first copy.
	memberIDs := make(map[int]bool, len(members))
	deviceNames := make([]string, 0, len(members))
	genesis := make(map[string]int, len(members))
	for _, di := range members {
		memberIDs[s.devices[di].ID] = true
		deviceNames = append(deviceNames, s.devices[di].Name())
		genesis[s.devices[di].Name()] = s.devices[di].ID
	}
	// The membership registry outlives any single gather: seeded from
	// the static cluster list, then fed by every control record the
	// session sees (JOIN / LEAVE / RESYNC fold in automatically), it is
	// the live member set each round's participation sample draws from
	// and the per-member traffic/latency history a scored sampler can
	// rank by.
	reg := ses.Membership()
	reg.Seed(genesis)
	devStats := make(map[int]DeviceStats, len(members))
	shards := make(map[int]RawShard, len(members))
	// A RESYNC-REQUEST this early (a device restarted with -rejoin
	// before the run reached the loop) cannot be served — the model
	// package does not exist yet — and must not kill the healthy run:
	// it is dropped, stalling only the mistimed rejoiner. A LEAVE here
	// still fails the gather: setup needs every device's shard.
	preLoopControl := func(msg transport.Message, rec wire.ControlRecord) (bool, error) {
		switch rec.Type {
		case wire.ControlJoin, wire.ControlResyncRequest:
			return false, nil
		default:
			return false, fmt.Errorf("unexpected %v control from %s during setup", rec.Type, msg.From)
		}
	}
	if _, err := ses.Gather(ctx, transport.GatherSpec{
		Kinds:     []transport.Kind{transport.KindStats, transport.KindProvision},
		Expect:    deviceNames,
		PerPeer:   2,
		Label:     "setup",
		OnControl: preLoopControl,
		OnMessage: func(msg transport.Message) error {
			switch msg.Kind {
			case transport.KindStats:
				var ds DeviceStats
				if err := s.decode(msg.Payload, &ds); err != nil {
					return fmt.Errorf("decode %v from %s during setup: %w", msg.Kind, msg.From, err)
				}
				if !memberIDs[ds.ID] {
					return fmt.Errorf("%v from %s for device %d outside cluster %d", msg.Kind, msg.From, ds.ID, edgeID)
				}
				if _, dup := devStats[ds.ID]; dup {
					return fmt.Errorf("duplicate %v from %s for device %d", msg.Kind, msg.From, ds.ID)
				}
				devStats[ds.ID] = ds
			case transport.KindProvision:
				var sh RawShard
				if err := s.decode(msg.Payload, &sh); err != nil {
					return fmt.Errorf("decode %v from %s during setup: %w", msg.Kind, msg.From, err)
				}
				if !memberIDs[sh.DeviceID] {
					return fmt.Errorf("%v from %s for device %d outside cluster %d", msg.Kind, msg.From, sh.DeviceID, edgeID)
				}
				if _, dup := shards[sh.DeviceID]; dup {
					return fmt.Errorf("duplicate %v from %s for device %d", msg.Kind, msg.From, sh.DeviceID)
				}
				shards[sh.DeviceID] = sh
			}
			return nil
		},
	}); err != nil {
		return err
	}

	// 2. Upload cluster statistics to the cloud.
	cs := ClusterStats{EdgeID: edgeID, MinStorage: 1e18}
	var worstE float64 = -1
	for _, di := range members {
		d := s.devices[di]
		if d.Storage < cs.MinStorage {
			cs.MinStorage = d.Storage
		}
		if e := d.Profile.Energy(1, 1); e > worstE {
			worstE = e
			cs.Profile = d.Profile
		}
		cs.DeviceIDs = append(cs.DeviceIDs, d.ID)
	}
	if err := s.send(transport.KindStats, name, "cloud", cs); err != nil {
		return err
	}

	// 3. Receive the customized backbone. Control traffic (a premature
	// RESYNC-REQUEST) is dropped here for the same reason as in setup.
	var msg transport.Message
	for {
		var err error
		if msg, err = ses.Recv(ctx); err != nil {
			return err
		}
		if msg.Kind == transport.KindControl {
			rec, err := transport.ParseControl(msg)
			if err != nil {
				return err
			}
			if _, err := preLoopControl(msg, rec); err != nil {
				return err
			}
			continue
		}
		if msg.Kind != transport.KindBackbone {
			return fmt.Errorf("%s expected %v from protocol, got %v from %s",
				name, transport.KindBackbone, msg.Kind, msg.From)
		}
		break
	}
	var asg BackboneAssignment
	if err := s.decode(msg.Payload, &asg); err != nil {
		return err
	}
	backbone, err := DecodeBackbone(asg)
	if err != nil {
		return err
	}

	// 4. Phase 2-1: header search on the shared dataset.
	shared := s.mergeShards(shards)
	train, val := shared.Split(0.8, rng)
	searcher, err := nas.NewSearcher(s.Cfg.Search, backbone, s.Cfg.NumClasses, train, val, rng)
	if err != nil {
		return err
	}
	arch, _, err := searcher.Search()
	if err != nil {
		return fmt.Errorf("nas: %w", err)
	}
	header, err := searcher.BuildFinal(arch)
	if err != nil {
		return err
	}

	// 5. Distribute backbone + header to devices. The backbone may have
	// been fine-tuned during search, so re-encode it. The package is
	// kept for the rest of the run: it is also the dense re-seed a
	// churned device receives when it resyncs mid-loop.
	asg2 := EncodeBackbone(backbone, asg.W, asg.D, asg.Candidate, s.Cfg.Wire.Quantization)
	pkg := HeaderPackage{Backbone: asg2, HeaderCfg: header.Cfg, Arch: arch, HeaderParams: EncodeHeader(header, s.Cfg.Wire.Quantization).HeaderParams}
	for _, di := range members {
		if err := s.send(transport.KindHeader, name, s.devices[di].Name(), pkg); err != nil {
			return err
		}
	}

	// 6. Phase 2-2 loop: similarity matrix once, then up to T streaming
	// aggregation rounds over the round-scoped gather. Uploads arrive
	// dense (KindImportanceSet) or delta-encoded against round t−1
	// (KindImportanceDelta); either way each one is folded into the
	// similarity-weighted accumulators as soon as it is decoded. With
	// the straggler cutoff configured, a round combines without the
	// slowest devices once the quorum+deadline fire; churned devices
	// re-enter through the RESYNC-REQUEST control path.
	sim, err := s.similarityMatrix(members, shards, rng)
	if err != nil {
		return err
	}
	st := s.newEdgeState(edgeID, ses, pkg, sim)
	return s.edgeLoop(ctx, st)
}

// edgeState is the Phase 2-2 loop state of one edge server, factored
// out of runEdge so a checkpoint can capture it at a round boundary
// and a restarted edge can rebuild it from the snapshot (ResumeRole)
// instead of redoing the unrepeatable setup phases.
type edgeState struct {
	edgeID int
	name   string
	ses    *transport.Session
	reg    *fleet.Registry

	// Positional geometry, derived deterministically from the Config.
	order     []int
	pos       map[int]int
	posByName map[string]int
	nameByPos []string
	idByPos   []int

	pkg HeaderPackage
	sim [][]float64

	shadows  []deltaDecoder
	downEncs []*deltaEncoder

	// departed marks devices that announced a LEAVE: they are dropped
	// from the remaining rounds. rejoinRound marks a resynced device's
	// re-entry round (-1 when not resyncing); until then it receives
	// neither a downlink nor a cutoff. lastSampled tracks each device's
	// most recent invited round under participation sampling; doneTold
	// tracks who already heard the run is over.
	departed    []bool
	rejoinRound []int
	lastSampled []int
	doneTold    []bool
	invited     []bool

	prev      []*importance.Set
	lastRound int

	sampling bool
	sampler  participationPicker
	// schedTrack arms the scored scheduler's gain telemetry: the fold
	// path feeds each decoded upload's magnitude into the registry.
	// Off (uniform mode) the fold path is untouched, keeping
	// scheduler-off runs byte- and state-identical to PR 6's sampler.
	schedTrack bool
	cutoff     bool
	// gatherEWMA is the adaptive straggler cutoff's smoothed gather
	// wall in seconds (Config.Straggler.AdaptiveCutoff); 0 until the
	// first gather completes.
	gatherEWMA float64

	// Byzantine screening (Config.Fleet.Detect): one detector per edge,
	// strikes accumulated across rounds. In detection mode uploads are
	// buffered per round instead of folded on arrival, scored after the
	// gather, and only the unflagged ones enter the combine.
	detect        *chaos.Detector
	detectPending []*importance.Set
	detectSamples map[int][]float64

	// startRound is where the loop enters: 0 for a fresh run, the
	// snapshot round on restore. resumedRound is -1 in a normal run; on
	// restore it anchors the duplicate-tolerance window in which
	// retransmitted uploads may cross originals that survived in
	// transit.
	startRound   int
	resumedRound int
}

// participationPicker is the per-round subset draw behind the sampled
// loop: PR 6's uniform fleet.Sampler or the scored sched.Scheduler,
// both deterministic functions of (seed, round, live set[, telemetry])
// behind the same contract — Size(n) = ceil(Frac×n) clamped to [1,n],
// picks sorted, identical across transports and repeated runs.
type participationPicker interface {
	Enabled() bool
	Size(n int) int
	Sample(round int, live []string) []string
}

// schedSource adapts the fleet registry and the cluster's device
// energy profiles to the scheduler's telemetry view. Everything it
// serves is deterministic given the run history: the registry series
// are round-gated EWMAs fed from decoded bytes, and the energy and
// latency priors are pure functions of the Config-derived device
// profiles at the cluster's backbone shape.
type schedSource struct {
	reg     *fleet.Registry
	energy  map[string]float64
	latency map[string]float64
}

func (src *schedSource) Telemetry(node string, round int) sched.Telemetry {
	tel := sched.Telemetry{
		Energy:       src.energy[node],
		LatencyPrior: src.latency[node],
		Staleness:    float64(round + 1), // unseen member: maximally stale
	}
	if m, ok := src.reg.Lookup(node); ok {
		tel.Gain = m.GainEWMA
		tel.GainKnown = m.HaveMag
		tel.Staleness = float64(round - m.LastRound)
		tel.UpBytes = m.BytesEWMA
		// A delta chain survives only adjacent participation: a member
		// that contributed exactly last round uploads at its EWMA cost;
		// anyone else re-seeds dense.
		tel.Warm = m.LastRound == round-1
		tel.WallSeconds = m.WallEWMA
	}
	return tel
}

// newParetoScheduler builds the scored picker for one edge: frac and
// seed shared with the uniform sampler (so disabling scoring
// reproduces its draws), telemetry from the edge's own registry, and
// per-member energy/latency priors evaluated at the cluster backbone.
func (s *System) newParetoScheduler(st *edgeState) *sched.Scheduler {
	src := &schedSource{
		reg:     st.reg,
		energy:  make(map[string]float64, len(st.order)),
		latency: make(map[string]float64, len(st.order)),
	}
	for _, di := range st.order {
		dev := s.devices[di]
		src.energy[dev.Name()] = dev.Profile.Energy(st.pkg.Backbone.W, st.pkg.Backbone.D)
		src.latency[dev.Name()] = dev.Profile.Latency(st.pkg.Backbone.W, st.pkg.Backbone.D)
	}
	o := s.Cfg.Fleet.Scheduler
	return &sched.Scheduler{
		Frac:      s.Cfg.Fleet.SampleFrac,
		Seed:      s.Cfg.SampleSeed(),
		Weights:   o.Weights,
		Intervals: o.Intervals,
		Source:    src,
	}
}

// importanceMagnitude is the deterministic scalar the scheduler's gain
// telemetry tracks: the mean absolute value over an upload's decoded
// layers. Fixed iteration order, so identical across transports.
func importanceMagnitude(layers [][]float64) float64 {
	var sum float64
	var n int
	for _, l := range layers {
		for _, v := range l {
			sum += math.Abs(v)
		}
		n += len(l)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// inResumeWindow reports whether round t is close enough to a restore
// point that a duplicate upload (a SESSION-RESUME retransmission
// crossing an original that outlived the crash in an inbox) is
// expected and must be dropped instead of failing the round.
func (st *edgeState) inResumeWindow(s *System, t int) bool {
	return st.resumedRound >= 0 && t <= st.resumedRound+s.retainRounds()
}

// newEdgeState builds the loop state fresh from the Config and the
// setup outputs (the distributed model package and similarity matrix).
func (s *System) newEdgeState(edgeID int, ses *transport.Session, pkg HeaderPackage, sim [][]float64) *edgeState {
	members := s.clusters[edgeID]
	order := append([]int(nil), members...)
	sort.Ints(order)
	st := &edgeState{
		edgeID:       edgeID,
		name:         edgeName(edgeID),
		ses:          ses,
		reg:          ses.Membership(),
		order:        order,
		pos:          make(map[int]int, len(order)),
		posByName:    make(map[string]int, len(order)),
		nameByPos:    make([]string, len(order)),
		idByPos:      make([]int, len(order)),
		pkg:          pkg,
		sim:          sim,
		shadows:      make([]deltaDecoder, len(order)),
		departed:     make([]bool, len(order)),
		rejoinRound:  make([]int, len(order)),
		lastSampled:  make([]int, len(order)),
		doneTold:     make([]bool, len(order)),
		invited:      make([]bool, len(order)),
		lastRound:    -1,
		sampling:     s.Cfg.Fleet.Sampling(),
		sampler:      fleet.Sampler{Frac: s.Cfg.Fleet.SampleFrac, Seed: s.Cfg.SampleSeed()},
		cutoff:       s.cutoffEnabled(),
		resumedRound: -1,
	}
	if s.Cfg.Fleet.Scheduler.Pareto() {
		st.schedTrack = true
		st.sampler = s.newParetoScheduler(st)
	}
	for i, di := range order {
		st.pos[s.devices[di].ID] = i
		st.posByName[s.devices[di].Name()] = i
		st.nameByPos[i] = s.devices[di].Name()
		st.idByPos[i] = s.devices[di].ID
	}
	for i := range order {
		st.rejoinRound[i] = -1
		st.lastSampled[i] = -1
	}
	// Downlink delta encoders: one per device, persisted across rounds
	// so each round's personalized set is encoded against the previous
	// round's downlink (the shadow the device holds).
	if s.Cfg.Wire.DeltaImportance {
		st.downEncs = make([]*deltaEncoder, len(order))
		for i := range st.downEncs {
			st.downEncs[i] = &deltaEncoder{mode: s.Cfg.Wire.Quantization}
		}
	}
	if s.Cfg.Fleet.Detect.Enabled {
		d := s.Cfg.Fleet.Detect
		st.detect = &chaos.Detector{K: d.K, Margin: d.Margin, StrikeLimit: d.StrikeLimit,
			MaxValues: d.MaxValues, ReplayFrac: d.ReplayFrac}
		st.detectPending = make([]*importance.Set, len(order))
		st.detectSamples = make(map[int][]float64, len(order))
	}
	return st
}

// edgeLoop runs the Phase 2-2 rounds over st, managing the background
// snapshot writer when checkpointing is configured: the loop hands the
// writer a marshalled snapshot at boundary rounds and keeps going; the
// write (and its fsync, if configured) happens off the critical path.
func (s *System) edgeLoop(ctx context.Context, st *edgeState) error {
	var writer *snapshotWriter
	if s.Cfg.Checkpoint.Enabled() {
		var err error
		if writer, err = newSnapshotWriter(s.checkpointFile(st.name), s.Cfg.Checkpoint.Fsync); err != nil {
			return err
		}
	}
	err := s.edgeRounds(ctx, st, writer)
	if writer != nil {
		if werr := writer.Close(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// edgeRounds is the round loop itself: a round-scoped gather per round
// with optional (adaptive) straggler cutoff, the control plane that
// lets churned devices resync mid-loop, and the streamed downlinks.
func (s *System) edgeRounds(ctx context.Context, st *edgeState, writer *snapshotWriter) error {
	edgeID := st.edgeID
	name := st.name
	ses := st.ses
	reg := st.reg
	order := st.order
	pos := st.pos
	posByName := st.posByName
	nameByPos := st.nameByPos
	idByPos := st.idByPos
	pkg := st.pkg
	sim := st.sim
	shadows := st.shadows
	downEncs := st.downEncs
	departed := st.departed
	rejoinRound := st.rejoinRound
	lastSampled := st.lastSampled
	doneTold := st.doneTold
	invited := st.invited
	sampling := st.sampling
	sampler := st.sampler
	cutoff := st.cutoff
	detect := st.detect
	detectPending := st.detectPending
	detectSamples := st.detectSamples
	// monitor: the §II-A convergence check is on.
	monitor := s.Cfg.ConvergenceEpsilon > 0
	// sendCutoff tells one device its round was combined without it (or,
	// with done set, that the run is over) — best-effort in every
	// caller: a slow device reads it and moves on, a dead one's
	// supervised link gives up on its own.
	sendCutoff := func(p, round int, done bool) {
		if done {
			doneTold[p] = true
		}
		_ = ses.SendControl(nameByPos[p], wire.ControlRecord{
			Type: wire.ControlRoundCutoff, Device: idByPos[p], Round: round, Done: done,
		})
	}
	// foldArena backs the zero-copy decode of every gathered upload:
	// reset per message, float payloads aliased straight into the frame
	// buffer instead of allocated. Safe because everything the fold
	// keeps past one message — combiner layers, delta shadows — is
	// copied by the fold itself (importance uploads convert f32→f64,
	// delta application copies into the shadow), inside the buffer
	// lifetime the gather guarantees OnMessage.
	foldArena := &wire.Arena{AliasInput: true}
	for t := st.startRound; t < s.Cfg.Phase2Rounds; t++ {
		if writer != nil && (t == st.startRound || t%s.Cfg.Checkpoint.EveryN() == 0) {
			// Marshal synchronously (deep copies of everything the round
			// will mutate), persist in the background.
			writer.write(st.snapshot(s, t))
		}
		st.lastRound = t
		// folded tracks which positions already contributed this round,
		// for the post-restore duplicate-tolerance window.
		folded := make([]bool, len(order))
		// Built once the round's invitees are known (below), before the
		// gather that feeds it.
		var comb *aggregate.Combiner
		rs := Phase2RoundStat{EdgeID: edgeID, Round: t}
		fold := func(msg transport.Message) error {
			busy := time.Now()
			var devID, p int
			var layers [][]float64
			var err error
			switch msg.Kind {
			case transport.KindImportanceSet:
				var up ImportanceUpload
				foldArena.Reset()
				if err := s.decodeArena(msg.Payload, &up, foldArena); err != nil {
					return fmt.Errorf("decode %v from %s in round %d: %w", msg.Kind, msg.From, t, err)
				}
				devID = up.DeviceID
				if p, err = posOf(pos, msg, devID); err != nil {
					return err
				}
				if folded[p] && st.inResumeWindow(s, t) {
					// Post-restore retransmission crossing an original that
					// outlived the crash in an inbox: drop the second copy.
					return nil
				}
				if layers, err = up.layers(); err != nil {
					return fmt.Errorf("%v from %s (device %d): %w", msg.Kind, msg.From, devID, err)
				}
				// A dense upload does not advance the delta shadow, so
				// drop it: a later sparse delta from this device must
				// fail ("no shadow round") rather than silently
				// reconstruct against a stale round.
				shadows[p] = deltaDecoder{}
				rs.DenseMessages++
			case transport.KindImportanceDelta:
				var up DeltaUpload
				foldArena.Reset()
				if err := s.decodeArena(msg.Payload, &up, foldArena); err != nil {
					return fmt.Errorf("decode %v from %s in round %d: %w", msg.Kind, msg.From, t, err)
				}
				devID = up.DeviceID
				if p, err = posOf(pos, msg, devID); err != nil {
					return err
				}
				if up.Round != t {
					return fmt.Errorf("%v from %s (device %d) carries round %d during round %d",
						msg.Kind, msg.From, devID, up.Round, t)
				}
				if folded[p] && st.inResumeWindow(s, t) {
					// Duplicate delta in the resume window: applying it twice
					// would corrupt the shadow chain, so drop it before apply.
					return nil
				}
				if layers, err = shadows[p].apply(up); err != nil {
					return fmt.Errorf("%v from %s (device %d): %w", msg.Kind, msg.From, devID, err)
				}
				rs.DeltaMessages++
			}
			if st.schedTrack {
				// Scored-scheduler telemetry: the decoded upload's
				// magnitude feeds the gain objective. After the duplicate
				// checks — and round-gated again inside the registry — so
				// a restored run's retransmissions fold at most once and
				// the telemetry series replays identically.
				reg.RecordImportance(nameByPos[p], t, importanceMagnitude(layers))
			}
			if detect != nil {
				// Detection mode: hold the upload until the gather ends —
				// a flagged one must never fold. The decoded layers are
				// fresh float64 copies with round lifetime (same contract
				// comb.Add relies on below), so buffering them is safe.
				if detectPending[p] != nil {
					return fmt.Errorf("%v from %s (device %d): duplicate upload for position %d", msg.Kind, msg.From, devID, p)
				}
				detectPending[p] = &importance.Set{Layers: layers}
				detectSamples[p] = detect.Sample(layers)
			} else if err := comb.Add(p, &importance.Set{Layers: layers}); err != nil {
				// A second upload for an already-folded position (device
				// retransmission) surfaces here as a combiner error rather
				// than silently replacing the first copy.
				return fmt.Errorf("%v from %s (device %d): %w", msg.Kind, msg.From, devID, err)
			}
			folded[p] = true
			rs.UploadBytes += int64(len(msg.Payload)) + transport.HeaderEstimate
			rs.AggregateNS += time.Since(busy).Nanoseconds()
			return nil
		}
		control := func(msg transport.Message, rec wire.ControlRecord) (bool, error) {
			switch rec.Type {
			case wire.ControlJoin:
				// A rejoining device announcing its fresh link:
				// advisory, the resync request carries the state change.
				return false, nil
			case wire.ControlLeave:
				p, ok := posByName[msg.From]
				if !ok {
					// Not a cluster member: link teardown from a peer
					// that finished its part of the run (the cloud
					// closes its transport after Phase 1) — lifecycle
					// noise, not churn.
					return false, nil
				}
				if rejoinRound[p] > t {
					// A rejoin is already pending for this device: the
					// LEAVE is its dead predecessor's shutdown
					// announcement, delivered on the old connection
					// *after* the successor's RESYNC overtook it on the
					// new one. Honoring it would re-mark the reborn
					// device departed and silently skip every downlink
					// it is waiting on (the TestChurnRejoinTCP hang).
					return false, nil
				}
				if !departed[p] {
					// The collector is waiting for this device's report;
					// tell it the member is gone so the run can end
					// without it. Only the edge can: the device's LEAVE
					// reaches the peers it had live links to, and a
					// device that dies pre-report never spoke to the
					// collector at all.
					if err := ses.SendControl("collector", wire.ControlRecord{
						Type: wire.ControlMemberGone, Node: name, Device: idByPos[p],
					}); err != nil {
						return false, err
					}
				}
				departed[p] = true
				shadows[p] = deltaDecoder{}
				return true, nil
			case wire.ControlResyncRequest:
				p, ok := pos[rec.Device]
				if !ok || nameByPos[p] != msg.From {
					return false, fmt.Errorf("%v from %s for device %d outside cluster %d", rec.Type, msg.From, rec.Device, edgeID)
				}
				if departed[p] {
					// Undo the MEMBER-GONE: the member is back in the
					// loop, so the collector must wait for its report
					// again.
					if err := ses.SendControl("collector", wire.ControlRecord{
						Type: wire.ControlMemberBack, Node: name, Device: rec.Device,
					}); err != nil {
						return false, err
					}
				}
				// Dense re-seed: both directions of the device's delta
				// exchange restart cold, and the device re-enters the
				// loop next round with a fresh copy of the model
				// package (its local state died with it).
				shadows[p] = deltaDecoder{}
				if downEncs != nil {
					downEncs[p] = &deltaEncoder{mode: s.Cfg.Wire.Quantization}
				}
				departed[p] = false
				rejoinRound[p] = t + 1
				rs.ResyncCount++
				if err := s.sendRound(transport.KindHeader, name, msg.From, t+1, pkg); err != nil {
					return false, err
				}
				return true, nil
			default:
				return false, fmt.Errorf("unexpected %v control from %s during aggregation round %d", rec.Type, msg.From, t)
			}
		}
		var expect []string
		var epoch uint64
		if sampling {
			// Build the round from the live membership, not the static
			// cluster list: draw the seeded sample, invite exactly the
			// sampled devices (everyone else sits the round out without
			// computing or uploading anything), and remember the
			// registry epoch so the gather re-checks liveness if
			// membership moves while invites are in flight.
			for i := range invited {
				invited[i] = false
			}
			eligible := make([]string, 0, len(order))
			for _, nm := range reg.Live() {
				p, ok := posByName[nm]
				if !ok || departed[p] || rejoinRound[p] > t {
					continue
				}
				eligible = append(eligible, nm)
			}
			for _, nm := range sampler.Sample(t, eligible) {
				p := posByName[nm]
				if lastSampled[p] != t-1 {
					// A participation gap breaks both delta-shadow
					// chains; the device derives the same reset from its
					// own round gap, so the pair re-seeds dense with no
					// extra signaling.
					shadows[p] = deltaDecoder{}
					if downEncs != nil {
						downEncs[p] = &deltaEncoder{mode: s.Cfg.Wire.Quantization}
					}
				}
				if err := ses.SendControl(nm, wire.ControlRecord{
					Type: wire.ControlRoundInvite, Node: nm, Device: idByPos[p], Round: t,
				}); err != nil {
					// The member churned between rounds: drop it from
					// this round and force a dense re-seed whenever it is
					// next sampled (the device missed a round either way).
					shadows[p] = deltaDecoder{}
					if downEncs != nil {
						downEncs[p] = &deltaEncoder{mode: s.Cfg.Wire.Quantization}
					}
					lastSampled[p] = -1
					continue
				}
				lastSampled[p] = t
				invited[p] = true
				expect = append(expect, nm)
				rs.Sampled = append(rs.Sampled, idByPos[p])
			}
			rs.SampledCount = len(expect)
			epoch = reg.Epoch()
			if len(expect) == 0 {
				// Every sampled member churned before its invite landed:
				// nothing to gather or combine this round.
				s.recordPhase2Round(rs)
				continue
			}
		} else {
			expect = make([]string, 0, len(order))
			for i := range order {
				if !departed[i] {
					expect = append(expect, nameByPos[i])
				}
			}
		}
		// A sampled round sends a downlink to its invitees only, so only
		// their rows of Eq. 21 are computed — unless the convergence
		// monitor is on, which compares every row with the previous
		// round's.
		var read []bool
		if sampling && !monitor {
			read = invited
		}
		var err error
		if comb, err = aggregate.NewCombinerFor(sim, read); err != nil {
			return err
		}
		spec := transport.GatherSpec{
			Round:  t,
			Kinds:  []transport.Kind{transport.KindImportanceSet, transport.KindImportanceDelta},
			Expect: expect,
			Epoch:  epoch,
			Label:  fmt.Sprintf("aggregation round %d", t),
			// Always tolerant: churn can inject out-of-round traffic
			// with or without the cutoff — a rejoining device races
			// ahead of a cluster still mid-gather (its next-round
			// upload is buffered), and a cut straggler's late upload
			// arrives a round behind (dropped, counted). Lockstep runs
			// never produce either, so nothing is hidden there; intra-
			// round violations still fail loudly via the payload round
			// check and the combiner's duplicate rejection.
			Tolerant:  true,
			OnMessage: fold,
			OnControl: control,
		}
		if cutoff {
			spec.Quorum = s.Cfg.Straggler.Quorum
			spec.Deadline = s.Cfg.Straggler.Deadline
			if s.Cfg.Straggler.AdaptiveCutoff && st.gatherEWMA > 0 {
				// Adaptive deadline: a multiple of the smoothed gather
				// wall, so the cutoff tracks the cluster's observed pace
				// instead of a hand-tuned constant. The first round (no
				// observation yet) uses the configured deadline.
				spec.Deadline = time.Duration(s.Cfg.Straggler.adaptiveFactor() * st.gatherEWMA * float64(time.Second))
			}
		}
		gres, err := ses.Gather(ctx, spec)
		if err != nil {
			return err
		}
		if cutoff && s.Cfg.Straggler.AdaptiveCutoff {
			a := s.Cfg.Straggler.adaptiveAlpha()
			if wall := gres.Wall.Seconds(); st.gatherEWMA <= 0 {
				st.gatherEWMA = wall
			} else {
				st.gatherEWMA = a*wall + (1-a)*st.gatherEWMA
			}
		}
		rs.GatherWallNS = gres.Wall.Nanoseconds()
		rs.StaleMessages = gres.Stale
		// Straggler cutoff: the round combines without the missing
		// devices. Their uplink shadows are invalid from here on — the
		// upload that would have advanced them was never folded — so
		// the next upload each sends must re-seed dense.
		missing := make([]bool, len(order))
		for _, nm := range gres.Missing {
			p := posByName[nm]
			missing[p] = true
			shadows[p] = deltaDecoder{}
			rs.CutoffCount++
		}
		// Byzantine screening: score the buffered uploads, fold only the
		// unflagged ones (ascending position, preserving Combine's exact
		// addition order), and evict repeat offenders through the fleet
		// registry. A suspect's upload is excluded from the combine —
		// ResultPartial renormalizes the similarity mass over the devices
		// that remain — but a suspect below the strike limit stays in the
		// loop and still receives its personalized downlink.
		if detect != nil {
			verdict := detect.Inspect(detectSamples)
			suspect := make(map[int]bool, len(verdict.Suspects))
			for _, p := range verdict.Suspects {
				suspect[p] = true
				rs.Suspects = append(rs.Suspects, idByPos[p])
			}
			for p := range order {
				if detectPending[p] == nil || suspect[p] {
					continue
				}
				if err := comb.Add(p, detectPending[p]); err != nil {
					return err
				}
			}
			for _, p := range verdict.Evicted {
				rs.EvictedDevices = append(rs.EvictedDevices, idByPos[p])
				// Registry eviction: epoch bump, MEMBER-GONE to the
				// collector (stop waiting for this device's report), and
				// the eviction notice to the device itself — its signal
				// to exit without reporting. The device is dropped from
				// every remaining round.
				reg.Leave(nameByPos[p])
				if !departed[p] {
					if err := ses.SendControl("collector", wire.ControlRecord{
						Type: wire.ControlMemberGone, Node: name, Device: idByPos[p],
					}); err != nil {
						return err
					}
				}
				departed[p] = true
				shadows[p] = deltaDecoder{}
				_ = ses.SendControl(nameByPos[p], wire.ControlRecord{
					Type: wire.ControlMemberGone, Device: idByPos[p], Round: t,
				})
			}
			for p := range detectPending {
				detectPending[p] = nil
			}
			clear(detectSamples)
		}
		if comb.Added() == 0 {
			// Nothing arrived (every live member resynced or left):
			// there is no combine this round. Under sampling the cut
			// members are told now — a cut invitee is blocked on this
			// round's downlink, and with no combine the usual
			// post-combine cutoff pass never runs.
			if sampling {
				for i := range order {
					if missing[i] {
						sendCutoff(i, t, t+1 >= s.Cfg.Phase2Rounds)
					}
				}
			}
			s.recordPhase2Round(rs)
			continue
		}
		// The fused convergence pass only runs when convergence checking
		// is on: st.prev stays nil otherwise, which short-circuits
		// SetsDelta to +Inf.
		busy := time.Now()
		var combined []*importance.Set
		var delta float64
		if comb.Added() == len(order) {
			// Full round: identical arithmetic to the pre-session path.
			combined, delta, err = comb.Result(st.prev)
		} else {
			// Quorum round: fold what arrived, renormalize the
			// similarity mass over the present devices.
			combined, _, delta, err = comb.ResultPartial(st.prev)
		}
		if err != nil {
			return err
		}
		rs.AggregateNS += time.Since(busy).Nanoseconds()
		// The loop ends at the round budget or on convergence of the
		// aggregated sets (§II-A: "repeated iteratively until
		// convergence"). The delta comes fused out of the combiner's
		// finalize pass; round 0 reports +Inf (no previous round).
		done := t+1 >= s.Cfg.Phase2Rounds
		if !done && monitor && delta < s.Cfg.ConvergenceEpsilon {
			done = true
		}
		if monitor {
			// The monitor is st.prev's only reader; without it the round's
			// accumulators are garbage once the downlinks are sent, and a
			// snapshot has nothing to copy.
			st.prev = combined
		}
		discard := s.Cfg.DiscardPerRound * (t + 1)
		// Stream the downlinks: every accumulator is final once the last
		// upload folds, so each device's personalized set is encoded
		// (quantized, or delta-encoded against that device's previous
		// downlink) on the worker pool and sent the moment its worker
		// finishes — not behind a serial quantize-then-send loop. Each
		// encoder is owned by exactly one worker, so the parallelism is
		// bitwise-invisible. Cut stragglers, departed devices, and
		// devices still waiting on their rejoin round are skipped: a cut
		// device gets a ROUND-CUTOFF record instead, so its loop moves
		// on instead of blocking on a downlink that will never come.
		busy = time.Now()
		type downSent struct {
			bytes   int64
			delta   bool
			skipped bool
			err     error
		}
		sent := make([]downSent, len(order))
		tensor.ParallelFor(len(order), func(i0, i1 int) {
			for i := i0; i < i1; i++ {
				d := &sent[i]
				if missing[i] || departed[i] || rejoinRound[i] > t || (sampling && !invited[i]) {
					d.skipped = true
					continue
				}
				var enc *deltaEncoder
				if downEncs != nil {
					enc = downEncs[i]
				}
				d.bytes, d.delta, d.err = s.sendPersonalized(
					name, nameByPos[i], enc, t, combined[i].Layers, discard, done)
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
				shadows[i] = deltaDecoder{}
				if downEncs != nil {
					downEncs[i] = &deltaEncoder{mode: s.Cfg.Wire.Quantization}
				}
				rs.CutoffCount++
				// If the device is actually alive behind a transient
				// link outage, this best-effort cutoff is what stops
				// it waiting forever on the lost downlink.
				sendCutoff(i, t, done)
				continue
			}
			rs.DownlinkBytes += d.bytes
			if d.delta {
				rs.DownDeltaMessages++
			} else {
				rs.DownDenseMessages++
			}
			if done {
				// The downlink payload carried the Done flag: this
				// device's loop ends on its own.
				doneTold[i] = true
			}
		}
		for i := range order {
			// Best-effort: the straggler may be slow (it will read this
			// and cut its round short) or dead (a supervised TCP send
			// eventually gives up; the device resyncs when it returns).
			if missing[i] {
				sendCutoff(i, t, done)
			}
		}
		rs.DownlinkNS = time.Since(busy).Nanoseconds()
		s.recordPhase2Round(rs)
		if done {
			break
		}
	}
	// Close every loop the final downlink didn't: a device that was not
	// invited to the final sampled round, one that resynced during the
	// final round and expects a round that will never run, or one whose
	// final-round notification was lost to a churn race. Any device the
	// edge has not positively told the run is over gets a Done cutoff
	// here — best-effort, but over a live link it is what unblocks a
	// loop stuck in Recv after every other role has exited.
	for i := range order {
		if departed[i] || doneTold[i] {
			continue
		}
		round := st.lastRound
		if rejoinRound[i] > st.lastRound {
			round = rejoinRound[i]
		}
		sendCutoff(i, round, true)
	}
	return nil
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

// recoverFromLostUplink explains a failed round-t upload send: if the
// edge already cut this device's round — its ROUND-CUTOFF, delivered
// before any LEAVE on the same link, is sitting in the inbox — the
// device can finalize (Done) or move to the next round instead of
// failing unreported. With checkpointing on, the dead uplink can
// instead mean the edge is mid-restart: its SESSION-RESUME triggers a
// retransmission of the buffered uploads (this round's included) and
// hands the device back to the normal downlink wait (resumed true).
// Anything else surfaces the original send error.
func (s *System) recoverFromLostUplink(ctx context.Context, ses *transport.Session, edge string, round int, enc *deltaEncoder, buf *uplinkBuffer, sendErr error) (done, resumed bool, err error) {
	wait := 250 * time.Millisecond
	if s.Cfg.Checkpoint.Enabled() {
		// A kill-and-restore cycle (process restart, snapshot read,
		// redial backoff) takes far longer than a cutoff notice: give the
		// restarted edge's SESSION-RESUME time to arrive.
		wait = 15 * time.Second
	}
	grace, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	for {
		msg, rerr := ses.Recv(grace)
		if rerr != nil {
			return false, false, fmt.Errorf("upload for round %d undeliverable: %w", round, sendErr)
		}
		if msg.Kind != transport.KindControl || msg.From != edge {
			continue // already in a failure path: drop stray traffic
		}
		rec, rerr := transport.ParseControl(msg)
		if rerr != nil {
			continue
		}
		if rec.Type == wire.ControlMemberGone {
			// Evicted by the edge's Byzantine detector mid-failure: the
			// eviction notice explains the dead uplink.
			return false, false, errEvicted
		}
		if rec.Type == wire.ControlSessionResume {
			// The edge restarted from its checkpoint — that is what
			// killed the send. Retransmit everything it may have lost.
			if rerr := buf.resend(s, ses.Node(), edge, rec.Round); rerr != nil {
				return false, false, rerr
			}
			return false, true, nil
		}
		if rec.Type == wire.ControlRoundCutoff && (rec.Round == round || rec.Done) {
			// The edge combined without us and dropped our uplink
			// shadow; restart the encoder cold like the in-band cutoff
			// path does. A Done cutoff counts whatever round it stamps:
			// the end-of-run broadcast may trail our self-paced round.
			if enc != nil {
				*enc = deltaEncoder{mode: s.Cfg.Wire.Quantization}
			}
			return rec.Done, false, nil
		}
	}
}

// posOf resolves a device ID to its cluster position, naming the
// offending sender and kind when the device is unknown.
func posOf(pos map[int]int, msg transport.Message, devID int) (int, error) {
	p, ok := pos[devID]
	if !ok {
		return 0, fmt.Errorf("%v from %s for unknown device %d", msg.Kind, msg.From, devID)
	}
	return p, nil
}

// mergeShards concatenates the uploaded device shards into the edge's
// shared dataset.
func (s *System) mergeShards(shards map[int]RawShard) *data.Dataset {
	ids := make([]int, 0, len(shards))
	for id := range shards {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ds := &data.Dataset{Name: s.Cfg.Dataset.Name, NumClasses: s.Cfg.NumClasses, Dim: s.Cfg.Dataset.Dim}
	for _, id := range ids {
		sh := shards[id]
		ds.X = append(ds.X, sh.X...)
		ds.Y = append(ds.Y, sh.Y...)
	}
	return ds
}

// similarityMatrix builds the Phase 2-2 weight matrix for the cluster
// according to the configured aggregation method, using the uploaded
// probe shards.
func (s *System) similarityMatrix(members []int, shards map[int]RawShard, rng *rand.Rand) ([][]float64, error) {
	order := append([]int(nil), members...)
	sort.Ints(order)
	method := methodFor(s.Cfg.Aggregation)
	n := len(order)
	hists := make([][]float64, n)
	feats := make([][][]float64, n)
	featDim := s.Cfg.FeatureDim
	if featDim <= 0 {
		featDim = 16
	}
	fx := data.NewFeatureExtractor(s.Cfg.Dataset.Dim, featDim, s.Cfg.Seed+7)
	for i, di := range order {
		sh := shards[s.devices[di].ID]
		hists[i] = sh.Histogram
		probe := sh.X
		if s.Cfg.ProbeSize > 0 && len(probe) > s.Cfg.ProbeSize {
			probe = probe[:s.Cfg.ProbeSize]
		}
		fs := make([][]float64, len(probe))
		for j, x := range probe {
			fs[j] = fx.Extract(x)
		}
		feats[i] = fs
	}
	return aggregate.MatrixFor(method, n, hists, feats, rng, s.Cfg.DistanceScale)
}

func methodFor(m AggregationMethod) aggregate.Method {
	switch m {
	case AggregateJS:
		return aggregate.JS
	case AggregateAverage:
		return aggregate.Average
	case AggregateAlone:
		return aggregate.Alone
	default:
		return aggregate.Wasserstein
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
	msg, err := ses.RecvKind(ctx, transport.KindHeader)
	if err != nil {
		return err
	}
	var pkg HeaderPackage
	if err := s.decode(msg.Payload, &pkg); err != nil {
		return err
	}
	header, err := buildDeviceHeader(pkg)
	if err != nil {
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
	name := dev.Name()
	edge := edgeName(edgeID)
	// A fresh seed stream: the original instance's position in its
	// stream died with it.
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 4000 + int64(dev.ID)))
	ses := transport.NewSession(name, s.Net)

	if err := ses.SendControl(edge, wire.ControlRecord{
		Type: wire.ControlResyncRequest, Node: name, Device: dev.ID,
	}); err != nil {
		return err
	}
	// Wait for the dense re-seed. Traffic addressed to this device's
	// dead predecessor (a downlink or cutoff the edge sent before it
	// learned of the churn, delivered here because the listener rebound
	// the same address) can still be in flight — drop it instead of
	// treating it as a protocol violation.
	var msg transport.Message
	for {
		var err error
		if msg, err = ses.Recv(ctx); err != nil {
			return err
		}
		if msg.Kind == transport.KindHeader && msg.From == edge {
			break
		}
		msg.Release() // stray predecessor traffic: dropped unread
	}
	var pkg HeaderPackage
	if err := s.decode(msg.Payload, &pkg); err != nil {
		return err
	}
	header, err := buildDeviceHeader(pkg)
	if err != nil {
		return err
	}
	// The message's round stamp is the round this device re-enters at.
	return s.deviceRefineAndReport(ctx, ses, edgeID, devIdx, rng, header, pkg, msg.Round)
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

// deviceLoop runs the Phase 2-2 single loop on the device side from
// startRound. The edge signals the final round via Done (round budget
// or convergence) or a Done ROUND-CUTOFF. With DeltaImportance on,
// uploads after the first round travel as sparse deltas against the
// previous round's payload and the personalized set comes back as a
// delta against the previous downlink; top-k sparsification keeps its
// legacy uplink payload (already sparse). With
// ImportanceRefreshPeriod > 1, importance is incremental: only
// IncrementalBatches new minibatches are folded into the running
// accumulator per round — speculatively, while the in-flight upload
// travels and the edge aggregates the cluster — with a full recompute
// every refresh-period rounds to bound the drift from folding batches
// against slightly stale parameters. A ROUND-CUTOFF from the edge
// means this round combined without us: the uplink delta state
// restarts cold (the edge dropped our upload) and the loop moves on.
// local holds the Featurize rows of the device's samples, the input
// header runs over.
func (s *System) deviceLoop(ctx context.Context, ses *transport.Session, dev cluster.Device, edgeID int, rng *rand.Rand, local *data.Dataset, header *nas.FrozenHeader, pkg HeaderPackage, startRound int) error {
	if s.Cfg.Fleet.Sampling() {
		return s.deviceSampledLoop(ctx, ses, dev, edgeID, rng, local, header, pkg, startRound)
	}
	name := ses.Node()
	edge := edgeName(edgeID)
	topK := s.Cfg.Wire.TopKFraction > 0 && s.Cfg.Wire.TopKFraction < 1
	var enc *deltaEncoder
	if s.Cfg.Wire.DeltaImportance && !topK {
		enc = &deltaEncoder{mode: s.Cfg.Wire.Quantization}
	}
	var downDec deltaDecoder
	// buf retains recent encoded uploads for SESSION-RESUME
	// retransmission; inert (zero retain) unless checkpointing is on.
	// resumed flips once a restarted edge announced itself, widening
	// what the downlink wait tolerates.
	buf := &uplinkBuffer{retain: s.retainRounds()}
	resumed := false
	liar := s.liarFor(dev.ID)
	refresh := s.Cfg.ImportanceRefreshPeriod
	incremental := refresh > 1
	incBatches := s.Cfg.IncrementalBatches
	if incBatches <= 0 {
		incBatches = defaultIncrementalBatches
	}
	acc := importance.NewAccumulator()
	prefolded := 0
	for t := startRound; t < s.Cfg.Phase2Rounds; t++ {
		// Deterministic straggler injection for cutoff benchmarks and
		// tests: one configured device computes late every round.
		if s.Cfg.Straggler.SlowDeviceDelay > 0 && dev.ID == s.Cfg.Straggler.SlowDeviceID {
			select {
			case <-time.After(s.Cfg.Straggler.SlowDeviceDelay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		drs := DeviceRoundStat{DeviceID: dev.ID, Round: t}
		start := time.Now()
		var err error
		if !incremental || t%refresh == 0 {
			// Full refresh: reset and recompute over the complete batch
			// budget — bitwise identical to the legacy from-scratch path.
			acc.Reset()
			if drs.Batches, err = acc.FoldBatches(header, local, s.Cfg.LocalBatch, fullImportanceBatches, rng); err != nil {
				return err
			}
		} else if prefolded == 0 {
			// Incremental round whose prefold folded nothing (an empty
			// or sub-batch-size local dataset): fold on the critical
			// path so the upload still reflects this round's budget.
			if drs.Batches, err = acc.FoldBatches(header, local, s.Cfg.LocalBatch, incBatches, rng); err != nil {
				return err
			}
		}
		prefolded = 0
		set, err := acc.Average()
		if err != nil {
			return err
		}
		drs.ImportanceNS = time.Since(start).Nanoseconds()
		// Byzantine corruption touches only the wire copy: the device's
		// own training state stays honest, so an inflated or fabricated
		// upload poisons the cluster's aggregate, not the liar itself.
		upLayers := set.Layers
		if liar != nil {
			upLayers = liar.Corrupt(t, upLayers)
		}
		upKind := transport.KindImportanceSet
		var upVal any
		if enc != nil {
			up, err := enc.encode(dev.ID, t, upLayers)
			if err != nil {
				return err
			}
			upKind = transport.KindImportanceDelta
			upVal = up
		} else {
			up := ImportanceUpload{DeviceID: dev.ID}
			if topK {
				up.Sparse = sparsifySet(upLayers, s.Cfg.Wire.TopKFraction)
			} else if s.Cfg.Wire.Quantization != QuantLossless {
				up.Quant, err = quantizeLayers(upLayers, s.Cfg.Wire.Quantization)
				if err != nil {
					return err
				}
			} else {
				up.Layers = quantizeSet(upLayers)
			}
			upVal = up
		}
		// Encode once: the same bytes go on the wire and (when
		// checkpointing is on) into the replay buffer, so a
		// SESSION-RESUME retransmission is bitwise identical.
		payload, raw, err := s.encodePayload(upKind, upVal)
		if err != nil {
			return err
		}
		buf.add(t, upKind, payload, raw)
		sendErr := s.sendRaw(upKind, name, edge, t, payload, raw)
		if sendErr != nil {
			// An undeliverable upload on a straggling round usually
			// means the edge already cut us — possibly on its final
			// round, with its ROUND-CUTOFF as its last word before
			// shutting down (a departed edge fails sends fast). Read
			// that explanation out of the inbox instead of dying with
			// an unreported device.
			done, res, rerr := s.recoverFromLostUplink(ctx, ses, edge, t, enc, buf, sendErr)
			if rerr != nil {
				return rerr
			}
			if !res {
				s.recordDeviceRound(drs)
				if done {
					break
				}
				continue
			}
			// The send died against a restarting edge and the buffered
			// uploads (this round's included) were retransmitted: rejoin
			// the normal path and wait for the re-run round's downlink.
			resumed = true
		}
		// Compute/communication overlap: while the upload is in flight
		// and the edge waits for the rest of the cluster, fold the next
		// incremental round's batches. They use the current parameters
		// (one TrainLocal step behind where a non-overlapped fold would
		// run) — the approximation the refresh period bounds. Wasted
		// only when the edge declares this round final.
		if incremental && t+1 < s.Cfg.Phase2Rounds && (t+1)%refresh != 0 {
			start = time.Now()
			if prefolded, err = acc.FoldBatches(header, local, s.Cfg.LocalBatch, incBatches, rng); err != nil {
				return err
			}
			drs.PrefoldBatches = prefolded
			drs.PrefoldNS = time.Since(start).Nanoseconds()
		}
		s.recordDeviceRound(drs)
		// Receive the personalized set: dense, delta-encoded against
		// the previous round's downlink, or a ROUND-CUTOFF control
		// record when this device straggled past the quorum deadline.
		out, err := s.awaitDownlink(ctx, ses, edge, t, enc, &downDec, buf, &resumed)
		if err != nil {
			return err
		}
		if out.cut {
			if out.done {
				break
			}
			continue
		}
		if err := header.ApplyImportance(&importance.Set{Layers: out.layers}, out.discard); err != nil {
			return err
		}
		if err := header.TrainLocal(local, 1, s.Cfg.LocalBatch, s.Cfg.LocalLR, rng); err != nil {
			return err
		}
		if s.Cfg.Checkpoint.Enabled() && !out.final && (t+1)%s.Cfg.Checkpoint.EveryN() == 0 {
			// End-of-round device snapshot: the trained model a restarted
			// device warm-rejoins with (resumeDevice). Synchronous — a
			// device's round is compute-dominated, and the loop must not
			// advance past state it claims to have persisted.
			if err := s.writeDeviceSnapshot(dev.ID, t+1, header.HeaderModel, pkg); err != nil {
				return err
			}
		}
		if out.final {
			break
		}
	}
	return nil
}

// downlinkOutcome is what one round's downlink wait resolved to:
// either a cutoff (cut, with done marking the end of the run) or a
// decoded personalized set.
type downlinkOutcome struct {
	cut     bool
	done    bool
	layers  [][]float64
	discard int
	final   bool
}

// awaitDownlink blocks until round t's downlink (or its cutoff)
// arrives from the edge, working the session control plane while it
// waits. Anything from the wrong sender, a duplicate, or an
// out-of-order round is a protocol violation named after the sender
// and kind — mirroring the edge's upload hardening — except inside a
// restarted edge's resume window, where a SESSION-RESUME triggers
// retransmission of the buffered uploads and the re-run rounds'
// duplicate downlinks (byte-identical to the copies already applied)
// are dropped unread.
func (s *System) awaitDownlink(ctx context.Context, ses *transport.Session, edge string, t int, enc *deltaEncoder, downDec *deltaDecoder, buf *uplinkBuffer, resumed *bool) (downlinkOutcome, error) {
	for {
		msg, err := ses.Recv(ctx)
		if err != nil {
			return downlinkOutcome{}, err
		}
		if msg.Kind == transport.KindControl {
			rec, err := transport.ParseControl(msg)
			msg.Release() // record fully copied out of the payload
			if err != nil {
				return downlinkOutcome{}, err
			}
			if rec.Type == wire.ControlMemberGone && msg.From == edge {
				// Evicted: the edge's detector crossed the strike limit
				// on our uploads. Exit without reporting.
				return downlinkOutcome{}, errEvicted
			}
			if s.Cfg.Checkpoint.Enabled() &&
				(rec.Type == wire.ControlJoin || rec.Type == wire.ControlLeave) {
				// Link lifecycle noise from a crashing or restarting peer's
				// transport. In a checkpointed run the edge's death is not
				// the end of the session — anything final still arrives as
				// a Done cutoff before the link goes down — so wait on.
				continue
			}
			if rec.Type == wire.ControlSessionResume && msg.From == edge {
				// The edge restarted from its checkpoint and re-runs the
				// loop from rec.Round: whatever uploads it held for those
				// rounds died with it, so retransmit our buffered copies
				// and keep waiting — round t's downlink is still coming.
				if err := buf.resend(s, ses.Node(), edge, rec.Round); err != nil {
					return downlinkOutcome{}, err
				}
				*resumed = true
				continue
			}
			if s.Cfg.Checkpoint.Enabled() && rec.Type == wire.ControlRoundInvite &&
				msg.From == edge && rec.Round <= t {
				// A restarted edge re-running sampled rounds this device
				// already played: the retransmitted upload buffer answers
				// the re-invite, so it is not a new participation — drop
				// it and keep waiting for round t's downlink.
				continue
			}
			if rec.Type != wire.ControlRoundCutoff || msg.From != edge {
				return downlinkOutcome{}, fmt.Errorf("unexpected %v control from %s during refinement round %d", rec.Type, msg.From, t)
			}
			if rec.Round != t && !rec.Done {
				return downlinkOutcome{}, fmt.Errorf("round-cutoff from %s carries round %d during round %d", msg.From, rec.Round, t)
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
			if enc != nil {
				*enc = deltaEncoder{mode: s.Cfg.Wire.Quantization}
			}
			return downlinkOutcome{cut: true, done: rec.Done}, nil
		}
		if *resumed && msg.Round < t &&
			(msg.Kind == transport.KindPersonalizedSet || msg.Kind == transport.KindImportanceDownDelta) {
			// A restarted edge re-sent a downlink for a round this device
			// already applied. The retransmitted round replays the exact
			// upload bytes, so this copy is byte-identical to the one the
			// shadow already advanced through: drop it unread.
			msg.Release()
			continue
		}
		psLayers, discard, final, err := s.decodePersonalized(downDec, msg, edge, t)
		// The decoded layers are fresh float64 copies either way, so the
		// frame buffer can go back to its pool here.
		msg.Release()
		if err != nil {
			return downlinkOutcome{}, err
		}
		return downlinkOutcome{layers: psLayers, discard: discard, final: final}, nil
	}
}

// deviceSampledLoop is the device side of the participation-sampled
// Phase 2-2 loop. Instead of self-pacing through every round, the
// device waits for a ROUND-INVITE naming each round it participates
// in, computes importance from scratch for that round (incremental
// folding does not compose with participation gaps: the accumulator
// would mix batches from parameters many rounds apart), uploads, and
// applies the downlink. A participation gap — this round is not
// adjacent to the last one the device was invited to — restarts both
// delta-shadow chains cold, mirroring the reset the edge derives from
// its own lastSampled history, so a resampled device re-seeds dense
// with no extra signaling. The loop ends on a Done downlink or a Done
// ROUND-CUTOFF (the edge's end-of-run broadcast to uninvited members).
//
// With checkpointing on the loop carries the same resume machinery as
// the self-paced deviceLoop: every upload is encoded once and retained
// in the replay buffer, a restarted edge's SESSION-RESUME triggers a
// byte-exact retransmission, and the re-run rounds' duplicates — both
// re-invites for rounds already played and downlinks already applied —
// are dropped unread, so a killed-and-restored edge finishes with
// reports identical to the uninterrupted run.
func (s *System) deviceSampledLoop(ctx context.Context, ses *transport.Session, dev cluster.Device, edgeID int, rng *rand.Rand, local *data.Dataset, header *nas.FrozenHeader, pkg HeaderPackage, startRound int) error {
	name := ses.Node()
	edge := edgeName(edgeID)
	topK := s.Cfg.Wire.TopKFraction > 0 && s.Cfg.Wire.TopKFraction < 1
	var enc *deltaEncoder
	if s.Cfg.Wire.DeltaImportance && !topK {
		enc = &deltaEncoder{mode: s.Cfg.Wire.Quantization}
	}
	var downDec deltaDecoder
	liar := s.liarFor(dev.ID)
	acc := importance.NewAccumulator()
	// buf retains recent encoded uploads for SESSION-RESUME
	// retransmission; inert (zero retain) unless checkpointing is on.
	// resumed flips once a restarted edge announced itself, widening
	// what the waits tolerate.
	buf := &uplinkBuffer{retain: s.retainRounds()}
	resumed := false
	ckpt := s.Cfg.Checkpoint.Enabled()
	last := startRound - 1
	for {
		// Wait for the next invite — or the word that the run is over.
		var t int
	waitInvite:
		for {
			msg, err := ses.Recv(ctx)
			if err != nil {
				return err
			}
			if msg.Kind != transport.KindControl {
				if resumed && msg.From == edge && msg.Round <= last &&
					(msg.Kind == transport.KindPersonalizedSet || msg.Kind == transport.KindImportanceDownDelta) {
					// A restarted edge re-ran a round this device already
					// applied; the duplicate downlink is byte-identical to
					// the copy the shadow advanced through. Drop it unread.
					msg.Release()
					continue
				}
				return fmt.Errorf("unexpected %v from %s while awaiting a round invite", msg.Kind, msg.From)
			}
			if msg.From != edge {
				return fmt.Errorf("unexpected %v from %s while awaiting a round invite", msg.Kind, msg.From)
			}
			rec, err := transport.ParseControl(msg)
			if err != nil {
				return err
			}
			switch rec.Type {
			case wire.ControlRoundInvite:
				if ckpt && rec.Round <= last {
					// A restarted edge re-running a round already played:
					// the retransmitted upload buffer answers the
					// re-invite and the duplicate downlink is dropped
					// above — not a new participation.
					continue
				}
				t = rec.Round
				break waitInvite
			case wire.ControlRoundCutoff:
				// A round we were cut from (the edge dropped our uplink
				// shadow) or, with Done, the end-of-run broadcast.
				if rec.Done {
					return nil
				}
				if enc != nil {
					*enc = deltaEncoder{mode: s.Cfg.Wire.Quantization}
				}
			case wire.ControlMemberGone:
				// Evicted by the edge's Byzantine detector: no more
				// invites are coming. Exit without reporting.
				return errEvicted
			case wire.ControlSessionResume:
				// The edge restarted from its checkpoint and re-runs the
				// loop from rec.Round: retransmit the buffered uploads
				// that died with it, then keep waiting for a fresh invite.
				if err := buf.resend(s, name, edge, rec.Round); err != nil {
					return err
				}
				resumed = true
			case wire.ControlJoin, wire.ControlLeave:
				if ckpt {
					// Link lifecycle noise from a crashing or restarting
					// peer's transport: in a checkpointed run the edge's
					// death is not the end of the session.
					continue
				}
				return fmt.Errorf("unexpected %v control from %s while awaiting a round invite", rec.Type, msg.From)
			default:
				return fmt.Errorf("unexpected %v control from %s while awaiting a round invite", rec.Type, msg.From)
			}
		}
		if t != last+1 {
			// Participation gap: both shadow chains restart cold; the
			// edge performs the identical reset from its lastSampled
			// gap, so this round's exchange is dense in both directions.
			if enc != nil {
				*enc = deltaEncoder{mode: s.Cfg.Wire.Quantization}
			}
			downDec = deltaDecoder{}
		}
		last = t
		// Deterministic straggler injection, as in the legacy loop.
		if s.Cfg.Straggler.SlowDeviceDelay > 0 && dev.ID == s.Cfg.Straggler.SlowDeviceID {
			select {
			case <-time.After(s.Cfg.Straggler.SlowDeviceDelay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		drs := DeviceRoundStat{DeviceID: dev.ID, Round: t}
		start := time.Now()
		acc.Reset()
		var err error
		if drs.Batches, err = acc.FoldBatches(header, local, s.Cfg.LocalBatch, fullImportanceBatches, rng); err != nil {
			return err
		}
		set, err := acc.Average()
		if err != nil {
			return err
		}
		drs.ImportanceNS = time.Since(start).Nanoseconds()
		// Byzantine corruption touches only the wire copy: the device's
		// own training state stays honest, so an inflated or fabricated
		// upload poisons the cluster's aggregate, not the liar itself.
		upLayers := set.Layers
		if liar != nil {
			upLayers = liar.Corrupt(t, upLayers)
		}
		upKind := transport.KindImportanceSet
		var upVal any
		if enc != nil {
			up, err := enc.encode(dev.ID, t, upLayers)
			if err != nil {
				return err
			}
			upKind = transport.KindImportanceDelta
			upVal = up
		} else {
			up := ImportanceUpload{DeviceID: dev.ID}
			if topK {
				up.Sparse = sparsifySet(upLayers, s.Cfg.Wire.TopKFraction)
			} else if s.Cfg.Wire.Quantization != QuantLossless {
				up.Quant, err = quantizeLayers(upLayers, s.Cfg.Wire.Quantization)
				if err != nil {
					return err
				}
			} else {
				up.Layers = quantizeSet(upLayers)
			}
			upVal = up
		}
		// Encode once: the same bytes go on the wire and (when
		// checkpointing is on) into the replay buffer, so a
		// SESSION-RESUME retransmission is bitwise identical.
		payload, raw, err := s.encodePayload(upKind, upVal)
		if err != nil {
			return err
		}
		buf.add(t, upKind, payload, raw)
		sendErr := s.sendRaw(upKind, name, edge, t, payload, raw)
		if sendErr != nil {
			// An undeliverable upload usually means the edge cut us or
			// shut down; with checkpointing it can instead be a
			// restarting edge. Read the explanation out of the inbox.
			done, res, rerr := s.recoverFromLostUplink(ctx, ses, edge, t, enc, buf, sendErr)
			if rerr != nil {
				return rerr
			}
			if !res {
				s.recordDeviceRound(drs)
				if done {
					return nil
				}
				continue
			}
			// The send died against a restarting edge and the buffered
			// uploads (this round's included) were retransmitted: rejoin
			// the normal path and wait for the re-run round's downlink.
			resumed = true
		}
		s.recordDeviceRound(drs)
		// Receive the personalized set for this round, or the
		// ROUND-CUTOFF that says the round combined without us.
		out, err := s.awaitDownlink(ctx, ses, edge, t, enc, &downDec, buf, &resumed)
		if err != nil {
			return err
		}
		if out.cut {
			if out.done {
				return nil
			}
			continue
		}
		if err := header.ApplyImportance(&importance.Set{Layers: out.layers}, out.discard); err != nil {
			return err
		}
		if err := header.TrainLocal(local, 1, s.Cfg.LocalBatch, s.Cfg.LocalLR, rng); err != nil {
			return err
		}
		if ckpt && !out.final && (t+1)%s.Cfg.Checkpoint.EveryN() == 0 {
			// End-of-round device snapshot, as in the self-paced loop: a
			// restarted device warm-rejoins with this model.
			if err := s.writeDeviceSnapshot(dev.ID, t+1, header.HeaderModel, pkg); err != nil {
				return err
			}
		}
		if out.final {
			return nil
		}
	}
}
