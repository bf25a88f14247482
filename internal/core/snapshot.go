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
	"acme/internal/nas"
	"acme/internal/nn"
	"acme/internal/transport"
	"acme/internal/wire"
)

// This file is the durable-session layer: the snapshot of the Phase
// 2-2 loop state, the background writer that persists it at round
// boundaries, and the restore paths that let a crashed edge or device
// re-enter a mid-flight run (System.ResumeRole). Snapshots travel in
// the internal/checkpoint envelope (versioned, CRC-guarded, atomically
// renamed into place), so a torn or bit-rotted file is detected on
// restore instead of silently resuming from garbage.

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

	// loop is the edge's own round-by-round state: a snapshot encodes
	// the live one, and a restore hands the decoded one to the edge.
	loop loopState

	// Detector is the Byzantine detector's cross-round memory (strike
	// book, eviction set, previous-round samples).
	Detector     chaos.State
	HaveDetector bool
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

// runTag fingerprints the configuration plus seed, so a snapshot is
// only ever restored into the run shape that wrote it. The fleet,
// datasets, and every protocol choice derive deterministically from
// the Config, so hashing its printed form pins them all. Checkpoint is
// left out: where the snapshots live and whether they are fsynced are
// the deployment's, not the run's, so a moved directory or a flipped
// -ckpt-fsync still restores.
func (c *Config) runTag() string {
	shape := *c
	shape.Checkpoint = CheckpointOptions{}
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", shape)
	return fmt.Sprintf("%016x", h.Sum64())
}

// CheckpointFile is a role's snapshot path under the configured
// checkpoint directory — where a supervisor (or a chaos harness) finds
// the durable state to restore from.
func (s *System) CheckpointFile(role string) string {
	return filepath.Join(s.Cfg.Checkpoint.Path, role+".ackp")
}

// retainRounds is how many encoded uploads a device retains for
// SESSION-RESUME retransmission, and the width of the edge's
// post-restore duplicate-tolerance window. The on-disk snapshot trails
// the live round by at most one round (one snapshot in flight behind
// the blocking writer), and a device can be one downlink ahead of the
// edge, so this depth always covers the span a restored edge may ask
// back.
const retainRounds = 3

// snapshotWriter persists snapshots off the loop's critical path: the
// loop hands an encoded snapshot to a single worker goroutine and
// continues. The hand-off channel is unbuffered, so enqueueing round
// t's snapshot waits only while the previous one is still being
// written — bounding how far the on-disk state can trail the live loop
// (see retainRounds).
type snapshotWriter struct {
	path  string
	fsync bool
	ch    chan []byte
	done  chan struct{}
	err   error // written by the worker, read after done closes
}

func newSnapshotWriter(path string, fsync bool) (*snapshotWriter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	w := &snapshotWriter{path: path, fsync: fsync, ch: make(chan []byte), done: make(chan struct{})}
	go w.loop()
	return w, nil
}

func (w *snapshotWriter) loop() {
	defer close(w.done)
	for data := range w.ch {
		if err := checkpoint.WriteFile(w.path, data, w.fsync); err != nil && w.err == nil {
			w.err = err
		}
	}
}

// write enqueues one encoded snapshot, blocking while the previous
// write is still in flight.
func (w *snapshotWriter) write(data []byte) {
	w.ch <- data
}

// Close drains the worker and reports the first write error.
func (w *snapshotWriter) Close() error {
	close(w.ch)
	<-w.done
	return w.err
}

// snapshot encodes the loop state at the start of round t into a
// checkpoint envelope. The encoding is the deep copy: the writer
// goroutine gets bytes, so the round may change the live state the
// moment this returns.
func (st *edgeState) snapshot(t int) ([]byte, error) {
	snap := &EdgeSnapshot{
		RunTag: st.s.Cfg.runTag(),
		EdgeID: st.edgeID,
		Round:  t,
		Pkg:    st.pkg,
		Sim:    st.sim,
		loop:   st.loopState,
	}
	if st.detect != nil {
		snap.HaveDetector = true
		snap.Detector = st.detect.State()
	}
	return checkpoint.Encode(snap)
}

// restoreInto hands the snapshot's loop state to st, whose positional
// geometry (order, pos maps) newEdgeState already rebuilt from the
// Config, once its shape fits the cluster and every part it carries is
// one the Config enables.
func (snap *EdgeSnapshot) restoreInto(st *edgeState) error {
	n, l := len(st.order), &snap.loop
	if len(l.departed) != n || len(l.doneTold) != n || len(l.rejoinRound) != n ||
		len(l.lastSampled) != n || len(l.shadows) != n {
		return fmt.Errorf("core: edge snapshot shape does not match cluster size %d", n)
	}
	if len(l.downEncs) != len(st.downEncs) {
		return fmt.Errorf("core: edge snapshot's downlink encoders do not match the config")
	}
	if snap.HaveDetector {
		if st.detect == nil {
			return fmt.Errorf("core: edge snapshot carries detector state the config does not enable")
		}
		st.detect.Restore(snap.Detector)
	}
	st.loopState = *l
	st.startRound = snap.Round
	st.resumedRound = snap.Round
	return nil
}

// ResumeRole restores a crashed role from its checkpoint and re-enters
// the run in progress. An edge re-enters its Phase 2-2 loop exactly
// where the snapshot left it, broadcasting SESSION-RESUME so its
// devices retransmit the uploads the crash may have swallowed, and
// returns its cluster's reports like RunRole. A device warm-rejoins
// through the RESYNC machinery, keeping its checkpointed model; with no
// usable snapshot it falls back to the plain dense rejoin (RejoinRole
// semantics). Devices report only after their edge's final Done, so an
// edge killed after any reported cannot be restored: they have exited.
func (s *System) ResumeRole(ctx context.Context, role string) (*Result, error) {
	if !s.Cfg.Checkpoint.Enabled() {
		return nil, fmt.Errorf("core: resume requires Config.Checkpoint.Path")
	}
	if e, di, ok := s.roleOf(role); ok {
		if di < 0 {
			return s.edgeResult(s.resumeEdge(ctx, e))
		}
		return nil, s.resumeDevice(ctx, e, di)
	}
	return nil, fmt.Errorf("core: only edge and device roles can resume, got %q", role)
}

// resumeEdge restores an edge's loop state from its snapshot and
// re-runs the loop from the snapshot round. A missing or mismatched
// edge snapshot is a hard error: the edge's loop state exists nowhere
// else (the cloud is gone), so there is nothing to fall back to.
func (s *System) resumeEdge(ctx context.Context, edgeID int) ([]DeviceReport, error) {
	name := s.edgeNames[edgeID]
	var snap EdgeSnapshot
	if err := checkpoint.ReadFile(s.CheckpointFile(name), &snap); err != nil {
		return nil, fmt.Errorf("core: restore %s: %w", name, err)
	}
	if snap.RunTag != s.Cfg.runTag() {
		return nil, fmt.Errorf("core: restore %s: snapshot is from a different run (tag %s, want %s)",
			name, snap.RunTag, s.Cfg.runTag())
	}
	if snap.EdgeID != edgeID {
		return nil, fmt.Errorf("core: restore %s: snapshot belongs to edge %d", name, snap.EdgeID)
	}
	ses := transport.NewSession(name, s.Net)
	st := s.newEdgeState(edgeID, ses, snap.Pkg, snap.Sim)
	if err := snap.restoreInto(st); err != nil {
		return nil, err
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
	return s.serveCluster(ctx, st)
}

// resumeDevice warm-rejoins a restored device: the normal RESYNC
// re-entry, but seeded with the checkpointed (trained) model instead
// of the package's coarse one. Any snapshot problem — missing file,
// torn write, a tag from another run — degrades to the plain dense
// rejoin rather than failing the device.
func (s *System) resumeDevice(ctx context.Context, edgeID, devIdx int) error {
	dev := s.devices[devIdx]
	var snap DeviceSnapshot
	if err := checkpoint.ReadFile(s.CheckpointFile(dev.Name()), &snap); err != nil {
		return s.runDeviceRejoin(ctx, edgeID, devIdx)
	}
	if snap.RunTag != s.Cfg.runTag() || snap.DeviceID != dev.ID {
		return s.runDeviceRejoin(ctx, edgeID, devIdx)
	}
	backbone, err := s.decodeBackbone(snap.Package.Backbone)
	if err != nil {
		return s.runDeviceRejoin(ctx, edgeID, devIdx)
	}
	header, err := buildDeviceHeader(snap.Package, backbone)
	if err != nil {
		return s.runDeviceRejoin(ctx, edgeID, devIdx)
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 4000 + int64(dev.ID)))
	ses := transport.NewSession(dev.Name(), s.Net)
	// The dense re-seed exactly like the cold rejoin — but keep the
	// checkpointed model; only the re-entry round is taken from the
	// wire.
	startRound, _, _, err := s.resync(ctx, ses, s.edgeNames[edgeID], dev.ID, false)
	if err != nil {
		return err
	}
	return s.deviceRefineAndReport(ctx, ses, edgeID, devIdx, rng, header, snap.Package, holding{}, startRound)
}

// writeDeviceSnapshot persists one device's trained model, lossless
// with masks, under the run's tag, to path: every round's warm-restore
// snapshot (resumeDevice) and the final model saved beside it
// (LoadDeviceCheckpoint) are this one file format.
// The header is encoded from the live model; the frozen backbone is
// pkg.Backbone, which the device encoded losslessly once before it
// dropped the backbone (deviceRefineAndReport).
func (s *System) writeDeviceSnapshot(path string, devID, round int, header *nas.HeaderModel, pkg HeaderPackage) error {
	model := EncodeHeader(header, QuantLossless)
	model.Backbone = pkg.Backbone
	snap := DeviceSnapshot{
		RunTag:   s.Cfg.runTag(),
		DeviceID: devID,
		Round:    round,
		Package:  model,
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	data, err := checkpoint.Encode(snap)
	if err == nil {
		err = checkpoint.WriteFile(path, data, s.Cfg.Checkpoint.Fsync)
	}
	if err != nil {
		return fmt.Errorf("core: device %d snapshot: %w", devID, err)
	}
	return nil
}

// deviceModelFile is where device id's final model lands under dir
// (Config.Checkpoint.Path).
func deviceModelFile(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("device-%d.ckpt", id))
}

// LoadDeviceCheckpoint restores the final customized model device id
// saved under dir (Config.Checkpoint.Path).
func LoadDeviceCheckpoint(dir string, id int) (*nn.Backbone, *nas.HeaderModel, error) {
	var snap DeviceSnapshot
	if err := checkpoint.ReadFile(deviceModelFile(dir, id), &snap); err != nil {
		return nil, nil, fmt.Errorf("core: load device %d model: %w", id, err)
	}
	backbone, err := DecodeBackbone(snap.Package.Backbone)
	if err != nil {
		return nil, nil, err
	}
	header, err := DecodeHeader(snap.Package, backbone)
	if err != nil {
		return nil, nil, err
	}
	return backbone, header, nil
}

// CheckSavedModels requires a report from every device, and that each
// device's final model saved under Config.Checkpoint.Path, re-evaluated
// on the device's raw test samples through HeaderModel.Forward (the
// reference path), scores the accuracy the device reported. The device
// computed that accuracy over backbone features it built once (at
// start, or on re-entry from a snapshot or a rejoin), so equality shows
// they are the ones its saved backbone produces.
func (s *System) CheckSavedModels(reports []DeviceReport) error {
	unreported := make(map[int]int, len(s.devices)) // device ID → index
	for di, d := range s.devices {
		unreported[d.ID] = di
	}
	for _, rep := range reports {
		di, ok := unreported[rep.DeviceID]
		if !ok {
			return fmt.Errorf("core: device %d reported twice or is not in the fleet", rep.DeviceID)
		}
		delete(unreported, rep.DeviceID)
		backbone, header, err := LoadDeviceCheckpoint(s.Cfg.Checkpoint.Path, rep.DeviceID)
		if err != nil {
			return err
		}
		if backbone.ActiveParamCount() != rep.BackboneParams {
			return fmt.Errorf("core: device %d: saved backbone has %d params, report %d",
				rep.DeviceID, backbone.ActiveParamCount(), rep.BackboneParams)
		}
		acc, err := nn.Evaluate(header, s.devTest[di].X, s.devTest[di].Y)
		if err != nil {
			return err
		}
		if acc != rep.AccuracyFinal {
			return fmt.Errorf("core: device %d: saved model scores %v, report %v", rep.DeviceID, acc, rep.AccuracyFinal)
		}
	}
	if len(unreported) > 0 {
		return fmt.Errorf("core: %d of %d devices never reported", len(unreported), len(s.devices))
	}
	return nil
}

// uplinkBuffer retains a device's last retainRounds encoded uploads —
// the exact payload bytes, so a retransmission is bitwise identical to
// the original — for the edge's SESSION-RESUME recovery. Unarmed when
// checkpointing is off.
type uplinkBuffer struct {
	armed bool
	ups   []bufferedUpload
}

type bufferedUpload struct {
	round   int
	kind    transport.Kind
	payload []byte
	raw     int
}

// add retains one upload's encoded form. The payload must be copied:
// the frame is leased to the transport, and the receiver's Release
// puts it back in the pool to be overwritten by the next encoding.
func (b *uplinkBuffer) add(round int, kind transport.Kind, payload []byte, raw int) {
	if !b.armed {
		return
	}
	b.ups = append(b.ups, bufferedUpload{
		round: round, kind: kind,
		payload: append([]byte(nil), payload...), raw: raw,
	})
	if len(b.ups) > retainRounds {
		b.ups = b.ups[len(b.ups)-retainRounds:]
	}
}

// resend retransmits every retained upload for fromRound or later, in
// round order, each as a leased copy of the original bytes.
func (b *uplinkBuffer) resend(s *System, from, to string, fromRound int) error {
	for _, up := range b.ups {
		if up.round < fromRound {
			continue
		}
		buf := wire.Lease(len(up.payload))
		buf.B = append(buf.B, up.payload...)
		if err := s.sendLeased(up.kind, from, to, up.round, buf, up.raw); err != nil {
			return fmt.Errorf("resume retransmit of round %d: %w", up.round, err)
		}
	}
	return nil
}
