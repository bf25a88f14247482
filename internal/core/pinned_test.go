package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"acme/internal/checkpoint"
	"acme/internal/transport"
	"acme/internal/wire"
)

// backboneRecorder records every KindBackbone payload the cloud sends,
// by destination, at send time.
type backboneRecorder struct {
	transport.Network
	mu   sync.Mutex
	sent map[string][][]byte
}

func (r *backboneRecorder) Send(msg transport.Message) error {
	if msg.Kind == transport.KindBackbone {
		r.mu.Lock()
		r.sent[msg.To] = append(r.sent[msg.To], append([]byte(nil), msg.Payload...))
		r.mu.Unlock()
	}
	return r.Network.Send(msg)
}

// TestCloudBackbonesPinned pins Phase 1's output — every edge's
// backbone frame and the selected candidates — to the bytes the serial
// cloud produced, so customizing the clusters concurrently changes
// nothing an edge receives. Under -race it also catches sweeps or
// distillations that share a scratch buffer. Re-pinned once since, when
// parameter blobs stopped carrying their parameter's name.
func TestCloudBackbonesPinned(t *testing.T) {
	cfg := tinyConfig()
	cfg.EdgeServers = 3
	cfg.Fleet.Spec.Clusters = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &backboneRecorder{Network: sys.Net, sent: map[string][][]byte{}}
	sys.Net = rec
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for e := 0; e < cfg.EdgeServers; e++ {
		frames := rec.sent[edgeName(e)]
		if len(frames) != 1 {
			t.Fatalf("%s received %d backbones, want 1", edgeName(e), len(frames))
		}
		h.Write(frames[0])
	}
	ids := make([]int, 0, len(res.Assignments))
	for id := range res.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "%d %+v\n", id, res.Assignments[id])
	}
	const want uint64 = 0x832b3ba46519fa02
	if got := h.Sum64(); got != want {
		t.Fatalf("cloud backbones hash %#x, want %#x", got, want)
	}
}

// TestDeviceSnapshotBytesPinned pins what a checkpointed device writes —
// its end-of-round snapshot and its final model file — to the bytes
// written when every snapshot re-encoded the device's live backbone.
// The run tag is left out: it hashes the Config's printed form, which
// changes whenever a Config field is added or removed. Re-pinned once
// since, when parameter blobs stopped carrying their parameter's name.
func TestDeviceSnapshotBytesPinned(t *testing.T) {
	cfg := tinyConfig()
	cfg.Phase2Rounds = 2
	cfg.Checkpoint.Path = t.TempDir()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := sys.Run(ctx); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, path := range []string{
		sys.CheckpointFile("device-0"),
		deviceModelFile(cfg.Checkpoint.Path, 0),
	} {
		var snap DeviceSnapshot
		if err := checkpoint.ReadFile(path, &snap); err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if snap.RunTag != cfg.runTag() || snap.DeviceID != 0 {
			t.Fatalf("%s: tag %s device %d", filepath.Base(path), snap.RunTag, snap.DeviceID)
		}
		snap.RunTag = ""
		b, err := wire.Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	const want uint64 = 0x36f2ff527afc8307
	if got := h.Sum64(); got != want {
		t.Fatalf("device 0 snapshots hash %#x, want %#x", got, want)
	}
}
