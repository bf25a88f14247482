package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"acme/internal/aggregate"
	"acme/internal/chaos"
	"acme/internal/data"
	"acme/internal/fleet"
	"acme/internal/importance"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/transport"
	"acme/internal/wire"
)

// runEdge is one edge server: it aggregates device statistics upward,
// receives its customized backbone, runs the Phase 2-1 header search on
// its shared dataset, distributes backbone+header to its devices, and
// then drives the Phase 2-2 single-loop aggregation (edge-device
// bidirectional single-loop interaction) over the session API: a
// round-scoped gather per round with optional straggler cutoff, plus
// the control plane that lets churned devices resync mid-loop, and
// ends with the cluster's reports. Each set-up step is one function
// below; the loop is edge_round.go.
func (s *System) runEdge(ctx context.Context, edgeID int) ([]DeviceReport, error) {
	name := s.edgeNames[edgeID]
	members := s.clusters[edgeID]
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 2000 + int64(edgeID)))
	ses := transport.NewSession(name, s.Net)

	shards, err := s.edgeGatherSetup(ctx, ses, edgeID)
	if err != nil {
		return nil, err
	}
	if err := s.send(transport.KindStats, name, "cloud", s.clusterStats(edgeID)); err != nil {
		return nil, err
	}
	backbone, asg, err := s.edgeReceiveBackbone(ctx, ses)
	if err != nil {
		return nil, err
	}
	pkg, err := s.searchHeader(backbone, asg, shards, rng)
	if err != nil {
		return nil, err
	}
	// Distribute backbone + header to devices: one encoding, the same
	// read-only frame to every member. The edge holds its reference
	// across the sends and each message carries one of its own, so the
	// frame goes back to the pool once the edge and every member are
	// done with it. The package is kept for the rest of the run: it is
	// also the dense re-seed a churned device receives when it resyncs
	// mid-loop.
	buf, raw, err := s.encodePayload(transport.KindHeader, pkg)
	if err != nil {
		return nil, err
	}
	for _, di := range members {
		buf.Retain()
		if err := s.sendLeased(transport.KindHeader, name, s.devices[di].Name(), 0, buf, raw); err != nil {
			buf.Release()
			return nil, err
		}
	}
	buf.Release()

	// Phase 2-2 loop: similarity matrix once, then up to T streaming
	// aggregation rounds over the round-scoped gather. Uploads arrive
	// dense (KindImportanceSet) or delta-encoded against round t−1
	// (KindImportanceDelta); either way each one is folded into the
	// similarity-weighted accumulators as soon as it is decoded. With
	// the straggler cutoff configured, a round combines without the
	// slowest devices once the quorum+deadline fire; churned devices
	// re-enter through the RESYNC-REQUEST control path.
	sim, err := s.similarityMatrix(members, shards, rng)
	if err != nil {
		return nil, err
	}
	return s.serveCluster(ctx, s.newEdgeState(edgeID, ses, pkg, sim))
}

// serveCluster plays the loop from st, then the report phase, which
// lets the rest of st — shadows, downlink encoders, the previous round's
// sets, the detector — go while the devices finish their last epoch.
func (s *System) serveCluster(ctx context.Context, st *edgeState) ([]DeviceReport, error) {
	if err := s.edgeRounds(ctx, st); err != nil {
		return nil, err
	}
	return awaitReports(ctx, st.ses, st.posByName, st.idByPos, st.departed)
}

// edgeGatherSetup collects every cluster member's statistics and
// shared-data shard. Uploads are keyed by device ID, so a duplicate (a
// retransmitting device) or an upload for a device outside this cluster
// is rejected with an error naming the sender and kind instead of
// silently overwriting the first copy.
func (s *System) edgeGatherSetup(ctx context.Context, ses *transport.Session, edgeID int) (map[int]RawShard, error) {
	members := s.clusters[edgeID]
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
	// the live member set each round's participation sample draws from.
	ses.Membership().Seed(genesis)
	haveStats := make(map[int]bool, len(members))
	shards := make(map[int]RawShard, len(members))
	// accept vets one upload's device ID against the cluster and the
	// uploads already seen.
	accept := func(msg transport.Message, devID int, dup bool) error {
		if !memberIDs[devID] {
			return fmt.Errorf("%v from %s for device %d outside cluster %d", msg.Kind, msg.From, devID, edgeID)
		}
		if dup {
			return fmt.Errorf("duplicate %v from %s for device %d", msg.Kind, msg.From, devID)
		}
		return nil
	}
	_, err := ses.Gather(ctx, transport.GatherSpec{
		Kinds:     edgeProtocol.setup.kinds(),
		Expect:    deviceNames,
		PerPeer:   2,
		Label:     edgeProtocol.setup.label(0),
		OnControl: gatherControl(&edgeProtocol.setup, 0, nil),
		OnMessage: func(msg transport.Message) error {
			switch msg.Kind {
			case transport.KindStats:
				var ds DeviceStats
				if err := wire.Decode(msg.Payload, &ds); err != nil {
					return fmt.Errorf("decode %v from %s during setup: %w", msg.Kind, msg.From, err)
				}
				if err := accept(msg, ds.ID, haveStats[ds.ID]); err != nil {
					return err
				}
				haveStats[ds.ID] = true
			case transport.KindProvision:
				var sh RawShard
				if err := wire.Decode(msg.Payload, &sh); err != nil {
					return fmt.Errorf("decode %v from %s during setup: %w", msg.Kind, msg.From, err)
				}
				_, dup := shards[sh.DeviceID]
				if err := accept(msg, sh.DeviceID, dup); err != nil {
					return err
				}
				shards[sh.DeviceID] = sh
			}
			return nil
		},
	})
	return shards, err
}

// clusterStats summarizes the cluster for the cloud's candidate sweep:
// the tightest storage budget and the worst-case energy profile.
func (s *System) clusterStats(edgeID int) ClusterStats {
	cs := ClusterStats{EdgeID: edgeID, MinStorage: 1e18}
	var worstE float64 = -1
	for _, di := range s.clusters[edgeID] {
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
	return cs
}

// edgeReceiveBackbone waits for the cloud's assignment and builds the
// backbone from it — inside the handler, because a quantized parameter
// blob aliases the frame (ParamBlob.Quant is decoded zero-copy) and the
// frame is released when the handler returns; the assignment comes back
// without its blobs.
func (s *System) edgeReceiveBackbone(ctx context.Context, ses *transport.Session) (backbone *nn.Backbone, asg BackboneAssignment, err error) {
	err = receive(ctx, ses, &edgeProtocol.backbone, 0, func(msg transport.Message, _ wire.ControlRecord) (done bool, err error) {
		if err = wire.Decode(msg.Payload, &asg); err != nil {
			err = fmt.Errorf("decode %v from %s: %w", msg.Kind, msg.From, err)
		} else {
			backbone, err = DecodeBackbone(asg)
		}
		asg.Params = nil
		return true, err
	})
	return backbone, asg, err
}

// searchHeader is Phase 2-1: the header search on the merged shared
// dataset, returning the model package the cluster's devices receive.
// The backbone may have been fine-tuned during search, so it is
// re-encoded.
func (s *System) searchHeader(backbone *nn.Backbone, asg BackboneAssignment, shards map[int]RawShard, rng *rand.Rand) (HeaderPackage, error) {
	train, val := s.mergeShards(shards).Split(0.8, rng)
	searcher, err := nas.NewSearcher(s.Cfg.Search, backbone, s.Cfg.NumClasses, train, val, rng)
	if err != nil {
		return HeaderPackage{}, err
	}
	arch, _, err := searcher.Search()
	if err != nil {
		return HeaderPackage{}, fmt.Errorf("nas: %w", err)
	}
	header, err := searcher.BuildFinal(arch)
	if err != nil {
		return HeaderPackage{}, err
	}
	return HeaderPackage{
		Backbone:     EncodeBackbone(backbone, asg.W, asg.D, asg.Candidate, s.Cfg.Wire.Quantization),
		HeaderCfg:    header.Cfg,
		Arch:         arch,
		HeaderParams: EncodeHeader(header, s.Cfg.Wire.Quantization).HeaderParams,
	}, nil
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

// edgeState is the Phase 2-2 loop state of one edge server, factored
// out of runEdge so a checkpoint can capture it at a round boundary
// and a restarted edge can rebuild it from the snapshot (ResumeRole)
// instead of redoing the unrepeatable setup phases.
type edgeState struct {
	s      *System
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

	loopState
	// invited marks the round's sampled invitees.
	invited []bool

	sampling bool
	sampler  fleet.Sampler
	// monitor: the §II-A convergence check is on.
	monitor bool
	cutoff  bool

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

	// arena backs the decode of every gathered upload, reset per
	// message. A float payload aliases the frame buffer when its data
	// happens to be 4-byte aligned in the frame; otherwise, the common
	// case, it is copied into the arena's block, which grows to the
	// largest upload once and is reused from then on. Safe because
	// everything the fold keeps past one message — combiner layers,
	// delta shadows — is copied by the fold itself (importance uploads
	// convert f32→f64 into the round's leased rows, delta application
	// copies into the shadow), inside the buffer lifetime the gather
	// guarantees OnMessage.
	arena *wire.Arena
}

// loopState is what an edge's loop changes from round to round, and
// all of it an EdgeSnapshot carries: its schema (schema.go) frames the
// live buffers, so a snapshot is encoded straight from them and a
// restore decodes straight into a fresh copy.
type loopState struct {
	// departed marks devices that announced a LEAVE: they are dropped
	// from the remaining rounds. doneTold tracks who already heard the
	// run is over. rejoinRound marks a resynced device's re-entry round
	// (-1 when not resyncing); until then it receives neither a
	// downlink nor a cutoff. lastSampled tracks each device's most
	// recent invited round under participation sampling.
	departed    []bool
	doneTold    []bool
	rejoinRound []int
	lastSampled []int

	// shadows and downEncs are the two directions of every device's
	// delta exchange (downEncs is nil without delta records).
	shadows  []deltaDecoder
	downEncs []*deltaEncoder

	// prev is the last round's combined sets, kept for the convergence
	// monitor (nil with it off, or before a round combined).
	prev      []*importance.Set
	lastRound int
}

// inResumeWindow reports whether round t is close enough to a restore
// point that a duplicate upload (a SESSION-RESUME retransmission
// crossing an original that outlived the crash in an inbox) is
// expected and must be dropped instead of failing the round.
func (st *edgeState) inResumeWindow(t int) bool {
	return st.resumedRound >= 0 && t <= st.resumedRound+retainRounds
}

// newEdgeState builds the loop state fresh from the Config and the
// setup outputs (the distributed model package and similarity matrix).
func (s *System) newEdgeState(edgeID int, ses *transport.Session, pkg HeaderPackage, sim [][]float64) *edgeState {
	members := s.clusters[edgeID]
	order := append([]int(nil), members...)
	sort.Ints(order)
	st := &edgeState{
		s:         s,
		edgeID:    edgeID,
		name:      s.edgeNames[edgeID],
		ses:       ses,
		reg:       ses.Membership(),
		order:     order,
		pos:       make(map[int]int, len(order)),
		posByName: make(map[string]int, len(order)),
		nameByPos: make([]string, len(order)),
		idByPos:   make([]int, len(order)),
		pkg:       pkg,
		sim:       sim,
		loopState: loopState{
			departed:    make([]bool, len(order)),
			doneTold:    make([]bool, len(order)),
			rejoinRound: make([]int, len(order)),
			lastSampled: make([]int, len(order)),
			shadows:     make([]deltaDecoder, len(order)),
			lastRound:   -1,
		},
		invited:      make([]bool, len(order)),
		sampling:     s.Cfg.Fleet.Sampling(),
		sampler:      fleet.Sampler{Frac: s.Cfg.Fleet.SampleFrac, Seed: s.Cfg.Seed},
		monitor:      s.Cfg.ConvergenceEpsilon > 0,
		cutoff:       s.Cfg.Straggler.Enabled(),
		resumedRound: -1,
		arena:        &wire.Arena{AliasInput: true},
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
	if s.Cfg.Wire.deltaRecords() {
		st.downEncs = make([]*deltaEncoder, len(order))
		for i := range st.downEncs {
			st.downEncs[i] = &deltaEncoder{mode: s.Cfg.Wire.Quantization}
		}
	}
	if s.Cfg.Fleet.Detect {
		st.detect = &chaos.Detector{}
		st.detectPending = make([]*importance.Set, len(order))
		st.detectSamples = make(map[int][]float64, len(order))
	}
	return st
}

// resetChains restarts both directions of position p's delta exchange
// cold, so the next upload and the next downlink both travel dense, and
// gives both shadows' storage back to wire's pool.
func (st *edgeState) resetChains(p int) {
	st.shadows[p].reset()
	if st.downEncs != nil {
		st.downEncs[p].reset()
	}
}

// release gives back what the loop state leases once the loop is over:
// every delta chain restarts cold, which frees every shadow, and the
// monitor's last combined sets go back to the pool.
func (st *edgeState) release() {
	for p := range st.shadows {
		st.resetChains(p)
	}
	importance.ReleaseAll(st.prev)
	st.prev = nil
}

// depart drops position p from the remaining rounds and from the
// report phase's wait.
func (st *edgeState) depart(p int) {
	st.departed[p] = true
	st.shadows[p].reset()
}

// sendCutoff tells one device its round was combined without it (or,
// with done set, that the run is over) — best-effort in every caller: a
// slow device reads it and moves on, a dead one's supervised link gives
// up on its own.
func (st *edgeState) sendCutoff(p, round int, done bool) {
	if done {
		st.doneTold[p] = true
	}
	_ = st.ses.SendControl(st.nameByPos[p], wire.ControlRecord{
		Type: wire.ControlRoundCutoff, Device: st.idByPos[p], Round: round, Done: done,
	})
}

// closeOut closes every loop the final downlink didn't: a device that
// was not invited to the final sampled round, one that resynced during
// the final round and expects a round that will never run, or one whose
// final-round notification was lost to a churn race. Any device the
// edge has not positively told the run is over gets a Done cutoff here
// — best-effort, but over a live link it is what unblocks a loop stuck
// in Recv after every other role has exited.
func (st *edgeState) closeOut() {
	for i := range st.order {
		if st.departed[i] || st.doneTold[i] {
			continue
		}
		round := st.lastRound
		if st.rejoinRound[i] > st.lastRound {
			round = st.rejoinRound[i]
		}
		st.sendCutoff(i, round, true)
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

// awaitReports is the edge's report phase. It keeps nothing of the loop
// but each member's position by node name, its device ID and whether it
// departed. A member's last message is its DeviceReport; the phase ends
// once every member has reported or departed and returns the reports in
// DeviceID order. It takes exactly one report per member, sent by that
// member. A member's LEAVE departs it: it will never report; a
// non-member's is noise.
func awaitReports(ctx context.Context, ses *transport.Session, posByName map[string]int, idByPos []int, departed []bool) ([]DeviceReport, error) {
	reports := make([]DeviceReport, 0, len(idByPos))
	reported := make([]bool, len(idByPos))
	done := func() bool {
		for p, gone := range departed {
			if !gone && !reported[p] {
				return false
			}
		}
		return true
	}
	var err error
	if !done() {
		err = receive(ctx, ses, &edgeProtocol.reports, 0, func(msg transport.Message, _ wire.ControlRecord) (bool, error) {
			p, member := posByName[msg.From]
			if msg.Kind == transport.KindControl { // a LEAVE
				if member {
					departed[p] = true
				}
				return done(), nil
			}
			var rep DeviceReport
			if err := wire.Decode(msg.Payload, &rep); err != nil {
				return false, fmt.Errorf("decode %v from %s: %w", msg.Kind, msg.From, err)
			}
			switch {
			case !member:
				return false, fmt.Errorf("%v from %s, which is not a member", msg.Kind, msg.From)
			case idByPos[p] != rep.DeviceID:
				return false, fmt.Errorf("%v from %s is for device %d", msg.Kind, msg.From, rep.DeviceID)
			case reported[p]:
				return false, fmt.Errorf("duplicate %v from %s", msg.Kind, msg.From)
			}
			reported[p] = true
			reports = append(reports, rep)
			return done(), nil
		})
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].DeviceID < reports[j].DeviceID })
	return reports, err
}
