package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"acme/internal/chaos"
	"acme/internal/cluster"
	"acme/internal/data"
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/pareto"
	"acme/internal/tensor"
	"acme/internal/transport"
	"acme/internal/wire"
)

// Phase2RoundStat captures one edge server's round of the Phase 2-2
// importance loop: the uplink volume it received (wire bytes including
// the per-message header estimate), the downlink volume it sent back,
// how many messages travelled dense vs delta-encoded in each direction,
// and the busy time the edge spent decoding, folding, and finalizing
// the aggregation plus streaming the downlinks (the pipeline's critical
// path, excluding the wait for device training).
type Phase2RoundStat struct {
	EdgeID        int
	Round         int
	UploadBytes   int64
	DenseMessages int
	DeltaMessages int
	AggregateNS   int64

	// GatherWallNS is the wall-clock time the edge spent in the round's
	// upload gather — the wait the straggler cutoff exists to bound.
	GatherWallNS int64
	// CutoffCount is how many expected devices missed the straggler
	// deadline and were combined around (their delta shadows were
	// invalidated and they received a ROUND-CUTOFF instead of a
	// personalized set).
	CutoffCount int
	// StaleMessages counts dropped uploads that carried an earlier
	// round — a cut straggler's late arrival.
	StaleMessages int
	// ResyncCount is how many devices re-entered the loop this round
	// via a RESYNC-REQUEST (dense re-seed of both delta shadows).
	ResyncCount int

	// Participation sampling (Config.Fleet.SampleFrac): how many live
	// members this round invited and which device IDs, in invite order.
	// Zero/empty when sampling is off (full participation).
	SampledCount int
	Sampled      []int

	// Byzantine detection (Config.Fleet.Detect): the device IDs this
	// round's statistical screen flagged (their uploads were excluded
	// from the combine and the similarity mass renormalized over the
	// rest) and the IDs whose strike count crossed the limit and were
	// evicted through the fleet registry. Empty when detection is off
	// or nothing was flagged.
	Suspects       []int
	EvictedDevices []int

	// Downlink direction: the personalized sets streamed back to the
	// cluster as each round's combine finalizes.
	DownlinkBytes     int64
	DownDenseMessages int
	DownDeltaMessages int
	DownlinkNS        int64
}

// DeviceRoundStat traces one device's round of the importance loop:
// how many minibatches it folded on the critical path (between
// receiving the previous downlink and sending this round's upload),
// how long that took, and how much folding it overlapped with the
// in-flight upload (the prefold of the next incremental round).
type DeviceRoundStat struct {
	DeviceID       int
	Round          int
	Batches        int   // critical-path minibatches folded this round
	ImportanceNS   int64 // critical-path fold + average time
	PrefoldBatches int   // minibatches folded while the upload was in flight
	PrefoldNS      int64 // overlapped fold time (off the critical path)
}

// Result aggregates the outcome of one full ACME run.
type Result struct {
	Reports     []DeviceReport           // in DeviceID order
	Assignments map[int]pareto.Candidate // edge id → selected backbone
	Stats       *transport.Stats

	// Phase2Rounds traces the importance loop per edge and round,
	// ordered by (EdgeID, Round) — the data behind the byte/latency
	// trajectory of the BENCH_<N>.json files.
	Phase2Rounds []Phase2RoundStat

	// DeviceRounds traces the device side of the loop per device and
	// round, ordered by (DeviceID, Round): critical-path importance
	// compute versus folding overlapped with the in-flight upload.
	DeviceRounds []DeviceRoundStat

	// UploadBytes is the measured uplink volume of ACME's protocol
	// (device stats + shared-data shards + importance sets + edge
	// statistics).
	UploadBytes int64
	// DownlinkBytes is the measured edge → device personalized-set
	// volume (dense PersonalizedSet plus delta-encoded downlinks) — the
	// symmetric counterpart of the importance share of UploadBytes.
	DownlinkBytes int64
	// CentralizedUploadBytes is the simulated upload volume of a
	// centralized system that ships every device's full local dataset to
	// the cloud (the CS column of Table I).
	CentralizedUploadBytes int64

	// SearchSpaceOurs / SearchSpaceCS compare architecture search-space
	// cardinalities: ACME searches only the header per edge server,
	// while a centralized system must search the joint
	// (width × depth × header) space per device.
	SearchSpaceOurs float64
	SearchSpaceCS   float64
}

// MeanAccuracyFinal returns the average post-refinement device accuracy.
func (r *Result) MeanAccuracyFinal() float64 {
	if len(r.Reports) == 0 {
		return 0
	}
	var s float64
	for _, rep := range r.Reports {
		s += rep.AccuracyFinal
	}
	return s / float64(len(r.Reports))
}

// MeanAccuracyCoarse returns the average pre-refinement device accuracy.
func (r *Result) MeanAccuracyCoarse() float64 {
	if len(r.Reports) == 0 {
		return 0
	}
	var s float64
	for _, rep := range r.Reports {
		s += rep.AccuracyCoarse
	}
	return s / float64(len(r.Reports))
}

// System wires the cloud, edge servers and devices over a network and
// runs the full ACME pipeline. The network is in-memory by default;
// NewSystemWithNetwork accepts any transport (cmd/acmenode uses TCP to
// run each role as its own OS process).
type System struct {
	Cfg Config
	Net transport.Network

	devices  []cluster.Device
	clusters [][]int // edge id → device indices
	public   *data.Dataset
	devTrain []*data.Dataset
	devTest  []*data.Dataset

	mu           sync.Mutex
	assignments  map[int]pareto.Candidate
	phase2Rounds []Phase2RoundStat
	deviceRounds []DeviceRoundStat
}

// NewSystem validates cfg and materializes the fleet and datasets.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: config: %w", err)
	}
	// Results are bitwise independent of the kernel parallelism, so a
	// package-level knob cannot break the determinism of concurrent
	// systems sharing the process. 0 means "leave the process-wide
	// setting alone" so a constructor with a default config never
	// clobbers a -parallel flag applied earlier.
	if cfg.Parallelism > 0 {
		tensor.SetParallelism(cfg.Parallelism)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen, err := data.NewGenerator(cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("core: dataset: %w", err)
	}

	spec := cfg.Fleet.Spec
	if spec.Clusters <= 0 {
		spec.Clusters = cfg.EdgeServers
	}
	devices := cluster.GenerateFleet(spec, rng)
	// Storage budgets are fractions of the reference model's parameter
	// count. Derived here — before any role goroutine starts — so every
	// role (and every process in TCP mode) sees identical budgets.
	if len(cfg.StorageFractions) > 0 {
		refParams, err := referenceParamCount(cfg)
		if err != nil {
			return nil, err
		}
		for i := range devices {
			frac := cfg.StorageFractions[i%len(cfg.StorageFractions)]
			devices[i].Storage = frac * refParams
		}
	}
	clusters, err := cluster.Partition(devices, cfg.EdgeServers, rng)
	if err != nil {
		return nil, fmt.Errorf("core: partition: %w", err)
	}

	publicN := cfg.PublicSamples
	if publicN <= 0 {
		publicN = 400
	}
	public := gen.Sample(publicN, nil, rand.New(rand.NewSource(cfg.Seed+101)))

	devTrain, devTest, err := deviceShards(cfg, gen, len(devices))
	if err != nil {
		return nil, err
	}

	mem := transport.NewMemory()
	s := &System{
		Cfg:         cfg,
		Net:         mem,
		devices:     devices,
		clusters:    clusters,
		public:      public,
		devTrain:    devTrain,
		devTest:     devTest,
		assignments: make(map[int]pareto.Candidate),
	}
	mem.Register("cloud", 64)
	for e, members := range clusters {
		// An edge's inbox must absorb a whole cluster's worth of setup
		// uploads (2 per device) plus loop traffic without backpressure
		// deadlocking thousands of senders.
		n := 256
		if 4*len(members) > n {
			n = 4 * len(members)
		}
		mem.Register(edgeName(e), n)
	}
	for _, d := range devices {
		mem.Register(d.Name(), 64)
	}
	mem.Register("collector", 4*len(devices))
	if cfg.Chaos.Enabled {
		// The chaos wrapper perturbs delivery timing and order, never
		// payloads, so seeded Results are identical with it on or off.
		s.Net = chaos.New(mem, chaos.Options{
			Seed:    cfg.ChaosSeed(),
			Default: cfg.Chaos.Profile(),
		})
	}
	return s, nil
}

// deviceShards materializes every device's local train/test split: one
// shard per device, or — memory scaling for thousands of simulated
// devices (Config.Fleet.SharedShards) — one shard per data group, its
// read-only splits aliased across the group's devices, so a 2000-device
// fleet holds G datasets instead of 2000.
func deviceShards(cfg Config, gen *data.Generator, n int) (devTrain, devTest []*data.Dataset, err error) {
	count, groups := n, cfg.DataGroups
	if cfg.Fleet.SharedShards {
		count = min(max(cfg.DataGroups, 1), n)
		groups = count
	}
	shards, err := data.Partition(gen, data.PartitionSpec{
		Devices:        count,
		SamplesPerDev:  cfg.SamplesPerDevice,
		ClassesPerDev:  cfg.ClassesPerDevice,
		Level:          cfg.Level,
		DistinctGroups: groups,
	}, rand.New(rand.NewSource(cfg.Seed+202)))
	if err != nil {
		return nil, nil, fmt.Errorf("core: shards: %w", err)
	}
	train := make([]*data.Dataset, count)
	test := make([]*data.Dataset, count)
	for i, shard := range shards {
		train[i], test[i] = shard.Split(0.8, rand.New(rand.NewSource(cfg.Seed+303+int64(i))))
	}
	devTrain = make([]*data.Dataset, n)
	devTest = make([]*data.Dataset, n)
	for i := range devTrain {
		devTrain[i], devTest[i] = train[i%count], test[i%count]
	}
	return devTrain, devTest, nil
}

// NewSystemWithNetwork builds the system state over a caller-provided
// network (e.g. transport.TCP). Every participating process must build
// the system from an identical Config so that fleet, shards and seeds
// agree, then call RunRole for its own role.
func NewSystemWithNetwork(cfg Config, net transport.Network) (*System, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	s.Net = net
	if cfg.Checkpoint.Enabled() {
		// In a checkpointed session a peer's LEAVE may be a crash about
		// to be restored on the same address: transports that support it
		// keep redialing instead of failing fast forever.
		if rl, ok := net.(interface{ SetRetryLeftPeers(bool) }); ok {
			rl.SetRetryLeftPeers(true)
		}
	}
	return s, nil
}

// Devices exposes the generated fleet (read-only use).
func (s *System) Devices() []cluster.Device { return s.devices }

// Clusters exposes the edge partition (read-only use).
func (s *System) Clusters() [][]int { return s.clusters }

// PublicDataset exposes the cloud dataset (read-only use).
func (s *System) PublicDataset() *data.Dataset { return s.public }

// DeviceTrain returns device i's local training shard.
func (s *System) DeviceTrain(i int) *data.Dataset { return s.devTrain[i] }

// DeviceTest returns device i's local test shard.
func (s *System) DeviceTest(i int) *data.Dataset { return s.devTest[i] }

func edgeName(e int) string { return fmt.Sprintf("edge-%d", e) }

// entropyKinds is the per-kind eligibility set for Wire.Entropy: the
// bulk payloads whose frames are large enough for an adaptive model to
// find skew. Control, stats, and report traffic stays plain — at their
// sizes the entropy frame's own header would eat the win, and the
// never-lose fallback would send them plain anyway.
var entropyKinds = map[transport.Kind]bool{
	transport.KindBackbone:            true,
	transport.KindHeader:              true,
	transport.KindImportanceSet:       true,
	transport.KindPersonalizedSet:     true,
	transport.KindRawData:             true,
	transport.KindProvision:           true,
	transport.KindImportanceDelta:     true,
	transport.KindImportanceDownDelta: true,
}

// codecFor returns the payload codec for one message kind: the
// entropy-layered binary codec for bulk kinds when Wire.Entropy is
// set, the plain binary codec otherwise. Decoding never consults this —
// entropy frames self-identify on the wire.
func (s *System) codecFor(kind transport.Kind) transport.Codec {
	if s.Cfg.Wire.Entropy && entropyKinds[kind] {
		return transport.Entropy
	}
	return transport.Binary
}

// send encodes v with the kind's wire codec and sends it as one
// message, recording raw-vs-wire byte accounting.
func (s *System) send(kind transport.Kind, from, to string, v any) error {
	return s.sendRound(kind, from, to, 0, v)
}

// sendRound is send with the message stamped with its loop round, so
// the session layer can tell a live upload from a cut straggler's
// stale one without decoding the payload.
func (s *System) sendRound(kind transport.Kind, from, to string, round int, v any) error {
	_, err := s.sendCounted(kind, from, to, round, v)
	return err
}

// sendCounted is sendRound plus a wire-byte readout (payload + framing
// estimate), for paths that feed the per-round traffic traces without
// re-reading the shared Stats counters.
func (s *System) sendCounted(kind transport.Kind, from, to string, round int, v any) (int64, error) {
	payload, raw, err := s.encodePayload(kind, v)
	if err != nil {
		return 0, err
	}
	if err := s.sendRaw(kind, from, to, round, payload, raw); err != nil {
		return 0, err
	}
	return int64(len(payload)) + transport.HeaderEstimate, nil
}

// encodePayload runs v through the kind's wire codec once and returns
// the payload bytes plus the raw-size estimate, so a caller can both
// send the message and retain the exact bytes (the uplink replay
// buffer retransmits originals after a SESSION-RESUME, keeping a
// resumed run byte-identical).
func (s *System) encodePayload(kind transport.Kind, v any) ([]byte, int, error) {
	payload, err := s.codecFor(kind).Encode(v)
	if err != nil {
		return nil, 0, err
	}
	return payload, wire.RawSize(v), nil
}

// sendRaw sends an already-encoded payload as one round-stamped
// message.
func (s *System) sendRaw(kind transport.Kind, from, to string, round int, payload []byte, raw int) error {
	return s.Net.Send(transport.Message{
		Kind: kind, From: from, To: to, Round: round,
		Payload: payload, Raw: raw,
	})
}

// decode deserializes a payload (plain or entropy-coded).
func (s *System) decode(data []byte, v any) error {
	return transport.Binary.Decode(data, v)
}

// decodeArena is decode with slices carved from a caller-owned arena —
// and, when the arena allows it, aliased straight into data — for
// streaming folds that consume the decoded value before the next
// message.
func (s *System) decodeArena(data []byte, v any, a *wire.Arena) error {
	return transport.Binary.DecodeArena(data, v, a)
}

// Run executes the full pipeline: Phase 1 on the cloud, Phase 2-1 on
// the edges, and the Phase 2-2 single loop between edges and devices.
// All roles run concurrently and communicate only via the network.
func (s *System) Run(ctx context.Context) (*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Buffered for one error per launched role, so every failure is
	// collected (and joined) rather than first-write-wins.
	errc := make(chan error, 1+len(s.clusters)+len(s.devices))
	var wg sync.WaitGroup

	launch := func(name string, fn func(context.Context) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(ctx); err != nil {
				errc <- fmt.Errorf("%s: %w", name, err)
				cancel()
			}
		}()
	}

	launch("cloud", s.runCloud)
	for e := range s.clusters {
		e := e
		launch(edgeName(e), func(ctx context.Context) error { return s.runEdge(ctx, e) })
	}
	for e, members := range s.clusters {
		for _, di := range members {
			e, di := e, di
			launch(s.devices[di].Name(), func(ctx context.Context) error { return s.runDevice(ctx, e, di) })
		}
	}

	// Collect device reports.
	reports, collectErr := s.collectReports(ctx)
	wg.Wait()
	close(errc)
	// A failing role cancels ctx, which also aborts the collector with
	// a context error — the role errors are the cause, the collector
	// error just noise. Join every role error; surface collectErr only
	// when no role failed.
	var roleErrs []error
	for err := range errc {
		roleErrs = append(roleErrs, err)
	}
	if err := errors.Join(roleErrs...); err != nil {
		return nil, err
	}
	if collectErr != nil {
		return nil, fmt.Errorf("core: collect: %w", collectErr)
	}

	res := &Result{
		Reports:      reports,
		Assignments:  s.assignmentsCopy(),
		Stats:        s.networkStats(),
		Phase2Rounds: s.phase2RoundsCopy(),
		DeviceRounds: s.deviceRoundsCopy(),
	}
	// Uplink kinds only: device/edge statistics, shared-data shards, and
	// importance sets (dense or delta-encoded) — what Table I's "Upload
	// Data" column measures.
	byKind := res.Stats.BytesByKind()
	res.UploadBytes = byKind[transport.KindStats] +
		byKind[transport.KindRawData] +
		byKind[transport.KindImportanceSet] +
		byKind[transport.KindImportanceDelta]
	// Downlink: the personalized-set return path, dense or delta.
	res.DownlinkBytes = byKind[transport.KindPersonalizedSet] +
		byKind[transport.KindImportanceDownDelta]
	res.CentralizedUploadBytes = s.centralizedBytes()
	res.SearchSpaceOurs = float64(len(s.clusters)) * nas.SpaceSize(s.Cfg.Search.Blocks)
	res.SearchSpaceCS = float64(len(s.devices)) * nas.SpaceSize(s.Cfg.Search.Blocks) *
		float64(len(s.Cfg.Widths)*len(s.Cfg.Depths))
	return res, nil
}

// collectReports is the collector role's loop, shared by Run and
// RunRole: one KindReport per device ends the run, but a device that
// churns away pre-report must not hang it forever — its edge, the only
// node guaranteed to observe the departure, announces a MEMBER-GONE,
// and the collector stops waiting for that device. A MEMBER-BACK (the
// device resynced into the loop) re-arms the wait for its report.
//
// Reports come back in DeviceID order, not arrival order, so a seeded
// run's Result — and the means summed over it — do not depend on which
// device finished first. Every frame is released once handled, on the
// error returns too: a DeviceReport is scalars, nothing aliases it.
func (s *System) collectReports(ctx context.Context) ([]DeviceReport, error) {
	reports := make([]DeviceReport, 0, len(s.devices))
	reported := make(map[int]bool, len(s.devices))
	gone := make(map[int]bool)
	handle := func(msg transport.Message) error {
		switch msg.Kind {
		case transport.KindReport:
			var rep DeviceReport
			if err := s.decode(msg.Payload, &rep); err != nil {
				return err
			}
			if reported[rep.DeviceID] {
				return fmt.Errorf("duplicate report from %s for device %d", msg.From, rep.DeviceID)
			}
			reported[rep.DeviceID] = true
			delete(gone, rep.DeviceID)
			reports = append(reports, rep)
		case transport.KindControl:
			rec, err := transport.ParseControl(msg)
			if err != nil {
				return err
			}
			switch rec.Type {
			case wire.ControlMemberGone:
				if !reported[rec.Device] {
					gone[rec.Device] = true
				}
			case wire.ControlMemberBack:
				delete(gone, rec.Device)
			case wire.ControlJoin, wire.ControlLeave:
				// Link lifecycle noise: on TCP every reporting device
				// JOINs the collector's listener and LEAVEs on Close.
			default:
				return fmt.Errorf("unexpected %v control from %s at collector", rec.Type, msg.From)
			}
		default:
			return fmt.Errorf("unexpected %v from %s at collector", msg.Kind, msg.From)
		}
		return nil
	}
	for len(reported)+len(gone) < len(s.devices) {
		msg, err := s.Net.Recv(ctx, "collector")
		if err != nil {
			return reports, err
		}
		err = handle(msg)
		msg.Release()
		if err != nil {
			return reports, err
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].DeviceID < reports[j].DeviceID })
	return reports, nil
}

// networkStats returns the network's traffic counters when the
// transport exposes them (the in-memory and TCP transports both do),
// or empty counters otherwise.
func (s *System) networkStats() *transport.Stats {
	type statser interface{ Stats() *transport.Stats }
	if st, ok := s.Net.(statser); ok {
		return st.Stats()
	}
	return transport.NewStats()
}

// RunRole executes exactly one role of the pipeline over the system's
// network: "cloud", "edge-N", "device-N", or "collector". Used when
// each role runs in its own OS process (cmd/acmenode); every process
// must construct the System from an identical Config. The collector
// role receives one report per device and returns them via the Result.
func (s *System) RunRole(ctx context.Context, role string) (*Result, error) {
	if role == "cloud" {
		return nil, s.runCloud(ctx)
	}
	if role == "collector" {
		reports, err := s.collectReports(ctx)
		if err != nil {
			return nil, err
		}
		return &Result{Reports: reports, Stats: s.networkStats()}, nil
	}
	if e, di, ok := s.roleOf(role); ok {
		if di < 0 {
			return nil, s.runEdge(ctx, e)
		}
		return nil, s.runDevice(ctx, e, di)
	}
	return nil, fmt.Errorf("core: unknown role %q", role)
}

// RejoinRole re-enters a churned device into a run already in
// progress: instead of the full setup handshake, the device announces
// itself to its edge with a RESYNC-REQUEST and receives a dense
// re-seed — the model package plus the round at which it rejoins the
// loop — so the remaining rounds continue sparse without restarting
// the run (cmd/acmenode -rejoin). Only device roles can rejoin.
func (s *System) RejoinRole(ctx context.Context, role string) error {
	if e, di, ok := s.roleOf(role); ok && di >= 0 {
		return s.runDeviceRejoin(ctx, e, di)
	}
	return fmt.Errorf("core: rejoin is only for device roles, got %q", role)
}

// roleOf resolves an edge or device role name to its edge ID and, for a
// device, its device index (−1 for an edge).
func (s *System) roleOf(role string) (edgeID, devIdx int, ok bool) {
	for e, members := range s.clusters {
		if role == edgeName(e) {
			return e, -1, true
		}
		for _, di := range members {
			if role == s.devices[di].Name() {
				return e, di, true
			}
		}
	}
	return 0, 0, false
}

// RoleNames lists every role of the configured system in launch order.
func (s *System) RoleNames() []string {
	names := []string{"cloud"}
	for e := range s.clusters {
		names = append(names, edgeName(e))
	}
	for _, d := range s.devices {
		names = append(names, d.Name())
	}
	names = append(names, "collector")
	return names
}

// centralizedBytes estimates the CS baseline's upload: every device
// ships its full local training shard to the cloud. It uses the same
// wire codec as the ACME run so the Table I comparison is
// apples-to-apples.
func (s *System) centralizedBytes() int64 {
	var total int64
	for i := range s.devTrain {
		shard := RawShard{
			DeviceID:  i,
			X:         s.devTrain[i].X,
			Y:         s.devTrain[i].Y,
			Histogram: s.devTrain[i].ClassHistogram(),
		}
		if payload, err := s.codecFor(transport.KindRawData).Encode(shard); err == nil {
			total += int64(len(payload)) + 16
		}
	}
	return total
}

// recordPhase2Round stores one edge round's loop statistics for the
// Result trace.
func (s *System) recordPhase2Round(rs Phase2RoundStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.phase2Rounds = append(s.phase2Rounds, rs)
}

func (s *System) phase2RoundsCopy() []Phase2RoundStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Phase2RoundStat(nil), s.phase2Rounds...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].EdgeID != out[j].EdgeID {
			return out[i].EdgeID < out[j].EdgeID
		}
		return out[i].Round < out[j].Round
	})
	return out
}

// recordDeviceRound stores one device round's importance-compute
// statistics for the Result trace.
func (s *System) recordDeviceRound(ds DeviceRoundStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deviceRounds = append(s.deviceRounds, ds)
}

func (s *System) deviceRoundsCopy() []DeviceRoundStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]DeviceRoundStat(nil), s.deviceRounds...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].DeviceID != out[j].DeviceID {
			return out[i].DeviceID < out[j].DeviceID
		}
		return out[i].Round < out[j].Round
	})
	return out
}

func (s *System) recordAssignment(edgeID int, cand pareto.Candidate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assignments[edgeID] = cand
}

func (s *System) assignmentsCopy() map[int]pareto.Candidate {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]pareto.Candidate, len(s.assignments))
	for k, v := range s.assignments {
		out[k] = v
	}
	return out
}

// referenceParamCount computes the parameter count of the reference
// model (backbone + linear head) without training it.
func referenceParamCount(cfg Config) (float64, error) {
	bb, err := nn.NewBackbone(cfg.Backbone, nil)
	if err != nil {
		return 0, fmt.Errorf("core: reference shape: %w", err)
	}
	head := cfg.Backbone.DModel*cfg.NumClasses + cfg.NumClasses
	return float64(bb.ActiveParamCount() + head), nil
}
