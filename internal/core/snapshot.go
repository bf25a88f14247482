package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"

	"acme/internal/chaos"
	"acme/internal/checkpoint"
	"acme/internal/fleet"
	"acme/internal/importance"
	"acme/internal/nas"
	"acme/internal/transport"
	"acme/internal/wire"
)

// This file is the durable-session layer: the serializable mirrors of
// the Phase 2-2 loop state, the background writer that persists them at
// round boundaries, and the restore paths that let a crashed edge or
// device re-enter a mid-flight run (System.ResumeRole). Snapshots
// travel in the internal/checkpoint envelope (versioned, CRC-guarded,
// atomically renamed into place), so a torn or bit-rotted file is
// detected on restore instead of silently resuming from garbage.

// PackedLayerState is the exported form of one packed delta-shadow
// layer (see packedLayer).
type PackedLayerState struct {
	Mode  QuantMode
	Scale float64
	Data  []byte
}

// ShadowState is the exported form of one uplink delta decoder: the
// packed representation of the last upload a device's edge folded.
type ShadowState struct {
	Present bool
	Layers  []PackedLayerState
}

// EncoderState is the exported form of one downlink delta encoder: the
// packed representation of the last personalized set a device received.
type EncoderState struct {
	Present bool
	Mode    QuantMode
	Layers  []PackedLayerState
}

// EdgeSnapshot is one edge server's Phase 2-2 loop state at the start
// of Round — everything a restarted edge needs to re-enter the loop
// without redoing setup (the cloud exited after Phase 1, so setup is
// unrepeatable). The edge's seeded rng is not included: it is fully
// consumed before the loop starts, so the loop itself draws nothing.
type EdgeSnapshot struct {
	// RunTag fingerprints the configuration that produced the snapshot;
	// restore refuses a snapshot from a different run.
	RunTag string
	EdgeID int
	// Round is the next round the loop will run.
	Round int
	// Pkg is the distributed model package — also the dense re-seed a
	// resyncing device receives mid-loop.
	Pkg HeaderPackage
	// Sim is the similarity matrix (computed once before the loop, from
	// rng draws a restored edge must not repeat).
	Sim [][]float64

	Departed    []bool
	DoneTold    []bool
	RejoinRound []int
	LastSampled []int

	Shadows  []ShadowState
	DownEncs []EncoderState
	// Prev is the last combined set per position (nil when no round has
	// combined yet, or when convergence checking is off and the loop
	// never kept it).
	Prev     [][][]float64
	HavePrev bool

	LastRound int

	// Detector is the Byzantine detector's cross-round memory (strike
	// book, eviction set, previous-round samples).
	Detector     chaos.State
	HaveDetector bool

	// Members and Epoch restore the fleet membership registry.
	Members []fleet.Member
	Epoch   uint64
}

// DeviceSnapshot is one device's loop state at the end of a round: its
// trained model (lossless, masks included). A restored device warm-
// rejoins through the normal RESYNC machinery but keeps this model
// instead of the package's coarse one.
type DeviceSnapshot struct {
	RunTag   string
	DeviceID int
	// Round is the next round the device would have uploaded for.
	Round   int
	Package HeaderPackage
}

// runTag fingerprints the full configuration plus seed, so a snapshot
// is only ever restored into the run shape that wrote it. The fleet,
// datasets, and every protocol choice derive deterministically from
// the Config, so hashing its printed form pins them all.
func (c *Config) runTag() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", *c)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkpointFile is the snapshot path for one role under the
// configured checkpoint directory.
func (s *System) checkpointFile(role string) string {
	return filepath.Join(s.Cfg.Checkpoint.Path, role+".ackp")
}

// CheckpointFile exposes a role's snapshot path — where a supervisor
// (or a chaos harness) finds the durable state to restore from.
func (s *System) CheckpointFile(role string) string { return s.checkpointFile(role) }

// retainRounds is how many encoded uploads a device retains for
// SESSION-RESUME retransmission, and the width of the edge's
// post-restore duplicate-tolerance window. The on-disk snapshot trails
// the live round by at most 2×EveryN−1 rounds (one snapshot in flight
// behind the blocking writer, one period between writes), and a device
// can be one downlink ahead of the edge, so this depth always covers
// the span a restored edge may ask back.
func (s *System) retainRounds() int {
	if !s.Cfg.Checkpoint.Enabled() {
		return 0
	}
	return 2*s.Cfg.Checkpoint.EveryN() + 1
}

// packedToState deep-copies packed layers into their exported form:
// the writer goroutine serializes the snapshot while the loop keeps
// mutating the live buffers, so nothing may alias.
func packedToState(pls []packedLayer) []PackedLayerState {
	if pls == nil {
		return nil
	}
	out := make([]PackedLayerState, len(pls))
	for i, pl := range pls {
		out[i] = PackedLayerState{
			Mode:  pl.mode,
			Scale: pl.scale,
			Data:  append([]byte(nil), pl.data...),
		}
	}
	return out
}

func stateToPacked(sts []PackedLayerState) []packedLayer {
	if sts == nil {
		return nil
	}
	out := make([]packedLayer, len(sts))
	for i, st := range sts {
		out[i] = packedLayer{
			mode:  st.Mode,
			scale: st.Scale,
			data:  append([]byte(nil), st.Data...),
		}
	}
	return out
}

func copyLayers2(layers [][]float64) [][]float64 {
	out := make([][]float64, len(layers))
	for i, l := range layers {
		out[i] = append([]float64(nil), l...)
	}
	return out
}

// snapshotWriter persists snapshots off the loop's critical path: the
// loop hands a fully-marshalled (deep-copied) snapshot to a single
// worker goroutine and continues. The hand-off channel is unbuffered,
// so enqueueing round t's snapshot waits only while the previous one
// is still being written — bounding how far the on-disk state can
// trail the live loop (see retainRounds).
type snapshotWriter struct {
	path  string
	fsync bool
	ch    chan any
	done  chan struct{}
	err   error // written by the worker, read after done closes
}

func newSnapshotWriter(path string, fsync bool) (*snapshotWriter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	w := &snapshotWriter{path: path, fsync: fsync, ch: make(chan any), done: make(chan struct{})}
	go w.loop()
	return w, nil
}

func (w *snapshotWriter) loop() {
	defer close(w.done)
	for v := range w.ch {
		if err := checkpoint.WriteFile(w.path, checkpoint.CodecGob, v, w.fsync); err != nil && w.err == nil {
			w.err = err
		}
	}
}

// write enqueues one snapshot, blocking while the previous write is
// still in flight.
func (w *snapshotWriter) write(v any) {
	w.ch <- v
}

// Close drains the worker and reports the first write error.
func (w *snapshotWriter) Close() error {
	close(w.ch)
	<-w.done
	return w.err
}

// snapshot marshals the loop state at the start of round t into its
// serializable form. Every mutable buffer is deep-copied here,
// synchronously, so the writer goroutine can serialize it while the
// round runs.
func (st *edgeState) snapshot(t int) *EdgeSnapshot {
	snap := &EdgeSnapshot{
		RunTag:      st.s.Cfg.runTag(),
		EdgeID:      st.edgeID,
		Round:       t,
		Pkg:         st.pkg, // immutable after setup
		Sim:         st.sim, // immutable after setup
		Departed:    append([]bool(nil), st.departed...),
		DoneTold:    append([]bool(nil), st.doneTold...),
		RejoinRound: append([]int(nil), st.rejoinRound...),
		LastSampled: append([]int(nil), st.lastSampled...),
		Shadows:     make([]ShadowState, len(st.shadows)),
		LastRound:   st.lastRound,
		Members:     st.reg.Snapshot(),
		Epoch:       st.reg.Epoch(),
	}
	for i := range st.shadows {
		snap.Shadows[i] = ShadowState{
			Present: st.shadows[i].prev != nil,
			Layers:  packedToState(st.shadows[i].prev),
		}
	}
	if st.downEncs != nil {
		snap.DownEncs = make([]EncoderState, len(st.downEncs))
		for i, e := range st.downEncs {
			snap.DownEncs[i] = EncoderState{
				Present: e.prev != nil,
				Mode:    e.mode,
				Layers:  packedToState(e.prev),
			}
		}
	}
	if st.prev != nil {
		snap.HavePrev = true
		snap.Prev = make([][][]float64, len(st.prev))
		for i, set := range st.prev {
			if set != nil {
				snap.Prev[i] = copyLayers2(set.Layers)
			}
		}
	}
	if st.detect != nil {
		snap.HaveDetector = true
		snap.Detector = st.detect.State()
	}
	return snap
}

// restoreInto rehydrates the loop state from a snapshot. The positional
// geometry (order, pos maps) was already rebuilt from the Config by
// newEdgeState; this fills in the round-dependent state.
func (snap *EdgeSnapshot) restoreInto(st *edgeState) error {
	n := len(st.order)
	if len(snap.Departed) != n || len(snap.DoneTold) != n ||
		len(snap.RejoinRound) != n || len(snap.LastSampled) != n ||
		len(snap.Shadows) != n {
		return fmt.Errorf("core: edge snapshot shape does not match cluster size %d", n)
	}
	copy(st.departed, snap.Departed)
	copy(st.doneTold, snap.DoneTold)
	copy(st.rejoinRound, snap.RejoinRound)
	copy(st.lastSampled, snap.LastSampled)
	for i, sh := range snap.Shadows {
		st.shadows[i] = deltaDecoder{}
		if sh.Present {
			st.shadows[i].prev = stateToPacked(sh.Layers)
		}
	}
	if snap.DownEncs != nil {
		if st.downEncs == nil || len(snap.DownEncs) != n {
			return fmt.Errorf("core: edge snapshot carries downlink encoders the config does not")
		}
		for i, es := range snap.DownEncs {
			st.downEncs[i] = &deltaEncoder{mode: es.Mode}
			if es.Present {
				st.downEncs[i].prev = stateToPacked(es.Layers)
			}
		}
	}
	if snap.HavePrev {
		st.prev = make([]*importance.Set, len(snap.Prev))
		for i, layers := range snap.Prev {
			if layers != nil {
				st.prev[i] = &importance.Set{Layers: layers}
			}
		}
	}
	st.lastRound = snap.LastRound
	if snap.HaveDetector {
		if st.detect == nil {
			return fmt.Errorf("core: edge snapshot carries detector state the config does not enable")
		}
		st.detect.Restore(snap.Detector)
	}
	st.reg.Restore(snap.Members, snap.Epoch)
	st.startRound = snap.Round
	st.resumedRound = snap.Round
	return nil
}

// ResumeRole restores a crashed role from its checkpoint and re-enters
// the run in progress. An edge re-enters its Phase 2-2 loop exactly
// where the snapshot left it, broadcasting SESSION-RESUME so its
// devices retransmit the uploads the crash may have swallowed. A
// device warm-rejoins through the RESYNC machinery, keeping its
// checkpointed model; with no usable snapshot it falls back to the
// plain dense rejoin (RejoinRole semantics).
func (s *System) ResumeRole(ctx context.Context, role string) error {
	if !s.Cfg.Checkpoint.Enabled() {
		return fmt.Errorf("core: resume requires Config.Checkpoint.Path")
	}
	if e, di, ok := s.roleOf(role); ok {
		if di < 0 {
			return s.resumeEdge(ctx, e)
		}
		return s.resumeDevice(ctx, e, di)
	}
	return fmt.Errorf("core: only edge and device roles can resume, got %q", role)
}

// resumeEdge restores an edge's loop state from its snapshot and
// re-runs the loop from the snapshot round. A missing or mismatched
// edge snapshot is a hard error: the edge's loop state exists nowhere
// else (the cloud is gone), so there is nothing to fall back to.
func (s *System) resumeEdge(ctx context.Context, edgeID int) error {
	name := edgeName(edgeID)
	var snap EdgeSnapshot
	if _, err := checkpoint.ReadFile(s.checkpointFile(name), &snap); err != nil {
		return fmt.Errorf("core: restore %s: %w", name, err)
	}
	if snap.RunTag != s.Cfg.runTag() {
		return fmt.Errorf("core: restore %s: snapshot is from a different run (tag %s, want %s)",
			name, snap.RunTag, s.Cfg.runTag())
	}
	if snap.EdgeID != edgeID {
		return fmt.Errorf("core: restore %s: snapshot belongs to edge %d", name, snap.EdgeID)
	}
	ses := transport.NewSession(name, s.Net)
	st := s.newEdgeState(edgeID, ses, snap.Pkg, snap.Sim)
	if err := snap.restoreInto(st); err != nil {
		return err
	}
	// Tell the cluster the edge is back: every device holding a
	// buffered upload for the resume round or later retransmits it,
	// re-feeding the gathers the crash emptied. Best-effort — a device
	// that is itself gone shows up as churn, not a resume failure.
	for p := range st.order {
		if st.departed[p] {
			continue
		}
		_ = ses.SendControl(st.nameByPos[p], wire.ControlRecord{
			Type: wire.ControlSessionResume, Node: name,
			Device: st.idByPos[p], Round: snap.Round,
		})
	}
	return s.edgeRounds(ctx, st)
}

// resumeDevice warm-rejoins a restored device: the normal RESYNC
// re-entry, but seeded with the checkpointed (trained) model instead
// of the package's coarse one. Any snapshot problem — missing file,
// torn write, a tag from another run — degrades to the plain dense
// rejoin rather than failing the device.
func (s *System) resumeDevice(ctx context.Context, edgeID, devIdx int) error {
	dev := s.devices[devIdx]
	var snap DeviceSnapshot
	if _, err := checkpoint.ReadFile(s.checkpointFile(dev.Name()), &snap); err != nil {
		return s.runDeviceRejoin(ctx, edgeID, devIdx)
	}
	if snap.RunTag != s.Cfg.runTag() || snap.DeviceID != dev.ID {
		return s.runDeviceRejoin(ctx, edgeID, devIdx)
	}
	header, err := buildDeviceHeader(snap.Package)
	if err != nil {
		return s.runDeviceRejoin(ctx, edgeID, devIdx)
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 4000 + int64(dev.ID)))
	ses := transport.NewSession(dev.Name(), s.Net)
	// The dense re-seed exactly like the cold rejoin — but keep the
	// checkpointed model; only the re-entry round is taken from the
	// wire.
	startRound, _, _, err := s.resync(ctx, ses, edgeName(edgeID), dev.ID, false)
	if err != nil {
		return err
	}
	return s.deviceRefineAndReport(ctx, ses, edgeID, devIdx, rng, header, snap.Package, startRound)
}

// writeDeviceSnapshot persists one device's warm-restore state: its
// trained model, lossless with masks, under the run's tag.
func (s *System) writeDeviceSnapshot(devID, round int, header *nas.HeaderModel, pkg HeaderPackage) error {
	model := EncodeHeader(header, QuantLossless)
	model.Backbone = EncodeBackbone(header.Backbone, pkg.Backbone.W, pkg.Backbone.D,
		pkg.Backbone.Candidate, QuantLossless)
	snap := DeviceSnapshot{
		RunTag:   s.Cfg.runTag(),
		DeviceID: devID,
		Round:    round,
		Package:  model,
	}
	path := s.checkpointFile(fmt.Sprintf("device-%d", devID))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	if err := checkpoint.WriteFile(path, checkpoint.CodecGob, snap, s.Cfg.Checkpoint.Fsync); err != nil {
		return fmt.Errorf("core: device %d snapshot: %w", devID, err)
	}
	return nil
}

// uplinkBuffer retains a device's last few encoded uploads — the exact
// payload bytes, so a retransmission is bitwise identical to the
// original — for the edge's SESSION-RESUME recovery. Inactive (zero
// retain) when checkpointing is off.
type uplinkBuffer struct {
	retain int
	ups    []bufferedUpload
}

type bufferedUpload struct {
	round   int
	kind    transport.Kind
	payload []byte
	raw     int
}

// add retains one upload's encoded form. The payload is copied: the
// sent slice's lifetime belongs to the transport.
func (b *uplinkBuffer) add(round int, kind transport.Kind, payload []byte, raw int) {
	if b.retain <= 0 {
		return
	}
	b.ups = append(b.ups, bufferedUpload{
		round: round, kind: kind,
		payload: append([]byte(nil), payload...), raw: raw,
	})
	if len(b.ups) > b.retain {
		b.ups = b.ups[len(b.ups)-b.retain:]
	}
}

// resend retransmits every retained upload for fromRound or later, in
// round order, each as a fresh copy of the original bytes.
func (b *uplinkBuffer) resend(s *System, from, to string, fromRound int) error {
	for _, up := range b.ups {
		if up.round < fromRound {
			continue
		}
		payload := append([]byte(nil), up.payload...)
		if err := s.sendRaw(up.kind, from, to, up.round, payload, up.raw); err != nil {
			return fmt.Errorf("resume retransmit of round %d: %w", up.round, err)
		}
	}
	return nil
}
