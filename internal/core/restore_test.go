package core

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"acme/internal/checkpoint"
	"acme/internal/transport"
)

// restoreConfig is the shared shape of the kill/restore trials: a few
// rounds of the sparse delta exchange with checkpointing armed at
// every round boundary.
func restoreConfig(dir string) Config {
	cfg := tinyConfig()
	cfg.Phase2Rounds = 5
	cfg.Wire.DeltaImportance = true
	cfg.Checkpoint.Path = dir
	return cfg
}

func sortedReports(res *Result) []DeviceReport {
	reports := append([]DeviceReport(nil), res.Reports...)
	sort.Slice(reports, func(i, j int) bool { return reports[i].DeviceID < reports[j].DeviceID })
	return reports
}

// runPlain runs cfg end to end on the in-memory transport.
func runPlain(t *testing.T, cfg Config) *Result {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// awaitEdgeSnapshot polls an edge's checkpoint file until it holds a
// snapshot at minRound or later, returning the snapshot round. The
// file is written atomically, so every read observes a complete
// snapshot.
func awaitEdgeSnapshot(t *testing.T, path string, minRound int) int {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("edge snapshot never reached round %d", minRound)
		}
		var snap EdgeSnapshot
		if _, err := checkpoint.ReadFile(path, &snap); err == nil && snap.Round >= minRound {
			return snap.Round
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestoreEquivalenceMemory is the tentpole's core claim: a run in
// which an edge is killed mid-loop and restored from its checkpoint
// produces byte-identical device reports to the same seeded run left
// uninterrupted. Equality is judged on the collector's reports — the
// run's scientific output — not on traffic counters, which legitimately
// count the retransmissions.
func TestRestoreEquivalenceMemory(t *testing.T) {
	cfg := restoreConfig(t.TempDir())
	// Pace the victim's cluster with the deterministic straggler delay
	// (no cutoff), so rounds are slow enough that the kill reliably
	// lands mid-loop instead of racing the run to completion.
	slowID, slowEdge := slowDeviceInLargestCluster(t, cfg)
	cfg.Straggler.SlowDeviceID = slowID
	cfg.Straggler.SlowDeviceDelay = 50 * time.Millisecond

	baseCfg := cfg
	baseCfg.Checkpoint = CheckpointOptions{}
	want := sortedReports(runPlain(t, baseCfg))

	got := sortedReports(runKillRestore(t, cfg, edgeName(slowEdge)))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("kill-and-restore run diverged from the uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRestoreEquivalenceSampledMemory extends the equivalence claim to
// a participation-sampled fleet: killing and restoring an edge mid-loop
// while only half the cluster plays each round must still reproduce the
// uninterrupted run byte for byte. The restored edge re-derives the
// same per-round picks (the draw depends only on seed, round, and
// membership), its re-invites for already-played rounds are dropped by
// the devices, and the retransmitted upload buffers answer the re-run
// gathers.
func TestRestoreEquivalenceSampledMemory(t *testing.T) {
	cfg := restoreConfig(t.TempDir())
	cfg.Fleet.Spec.DevicesPerCluster = 4
	cfg.Fleet.SampleFrac = 0.5
	slowID, slowEdge := slowDeviceInLargestCluster(t, cfg)
	cfg.Straggler.SlowDeviceID = slowID
	cfg.Straggler.SlowDeviceDelay = 50 * time.Millisecond

	baseCfg := cfg
	baseCfg.Checkpoint = CheckpointOptions{}
	want := sortedReports(runPlain(t, baseCfg))

	got := sortedReports(runKillRestore(t, cfg, edgeName(slowEdge)))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sampled kill-and-restore run diverged from the uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
}

// runKillRestore runs cfg on the in-memory transport, kills the named
// edge once its checkpoint proves the loop is mid-flight, restores it
// from the snapshot, and returns the collector's result.
func runKillRestore(t *testing.T, cfg Config, victim string) *Result {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()

	var (
		wg        sync.WaitGroup
		edgeDead  sync.WaitGroup
		mu        sync.Mutex
		collected *Result
		failures  []error
	)
	for _, role := range sys.RoleNames() {
		role := role
		runCtx := ctx
		if role == victim {
			runCtx = victimCtx
			edgeDead.Add(1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if role == victim {
				defer edgeDead.Done()
			}
			res, err := sys.RunRole(runCtx, role)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && role != victim {
				failures = append(failures, fmt.Errorf("%s: %w", role, err))
				cancel()
				return
			}
			if res != nil {
				collected = res
			}
		}()
	}

	// Kill the edge once its snapshot proves the loop is mid-flight,
	// then wait for the goroutine to die (its snapshot writer must
	// release the file before the resumed instance opens it).
	awaitEdgeSnapshot(t, sys.checkpointFile(victim), 2)
	kill()
	edgeDead.Wait()

	if err := sys.ResumeRole(ctx, victim); err != nil {
		t.Errorf("resume %s: %v", victim, err)
		cancel()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, err := range failures {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if collected == nil {
		t.Fatal("collector returned no result")
	}
	return collected
}

// TestCheckpointContinuity: arming checkpoints without any crash must
// be invisible to the run's output — byte-identical reports — while
// still leaving restorable snapshots on disk for every edge and device.
func TestCheckpointContinuity(t *testing.T) {
	dir := t.TempDir()
	cfg := restoreConfig(dir)

	baseCfg := cfg
	baseCfg.Checkpoint = CheckpointOptions{}
	want := sortedReports(runPlain(t, baseCfg))
	got := sortedReports(runPlain(t, cfg))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpointing changed the run's reports:\ngot  %+v\nwant %+v", got, want)
	}

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := range sys.Clusters() {
		path := sys.checkpointFile(edgeName(e))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("edge snapshot missing: %v", err)
		}
		if !checkpoint.IsEnvelope(raw) {
			t.Fatalf("%s is not an envelope snapshot", path)
		}
	}
	for _, dev := range sys.Devices() {
		if _, err := os.Stat(sys.checkpointFile(dev.Name())); err != nil {
			t.Fatalf("device snapshot missing: %v", err)
		}
	}
}

// TestRestoreSmokeTCP (make restore-smoke) proves the crash story over
// a real transport: every role on its own loopback TCP listener, the
// edge SIGKILL-equivalent torn down mid-loop (context cancelled,
// sockets closed), restarted on the same address, and restored from its
// snapshot. The run must finish with every device reporting, and the
// reports must match the uninterrupted in-memory run bit for bit.
func TestRestoreSmokeTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-role TCP cluster with a kill/restore cycle")
	}
	cfg := restoreConfig(t.TempDir())
	slowID, slowEdge := slowDeviceInLargestCluster(t, cfg)
	cfg.Straggler.SlowDeviceID = slowID
	cfg.Straggler.SlowDeviceDelay = 50 * time.Millisecond

	baseCfg := cfg
	baseCfg.Checkpoint = CheckpointOptions{}
	want := sortedReports(runPlain(t, baseCfg))

	probe, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := edgeName(slowEdge)
	roles := probe.RoleNames()
	nets, peers := tcpCluster(t, roles)
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()

	var (
		wg        sync.WaitGroup
		edgeDead  sync.WaitGroup
		mu        sync.Mutex
		collected *Result
		failures  []error
	)
	for _, role := range roles {
		sys, err := NewSystemWithNetwork(cfg, nets[role])
		if err != nil {
			t.Fatal(err)
		}
		role := role
		runCtx := ctx
		if role == victim {
			runCtx = victimCtx
			edgeDead.Add(1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if role == victim {
				defer edgeDead.Done()
			}
			res, err := sys.RunRole(runCtx, role)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && role != victim {
				failures = append(failures, fmt.Errorf("%s: %w", role, err))
				cancel()
				return
			}
			if res != nil {
				collected = res
			}
		}()
	}

	awaitEdgeSnapshot(t, probe.checkpointFile(victim), 2)
	kill()
	nets[victim].Close()
	edgeDead.Wait()

	// Restart the edge on the same address — exactly what a supervisor
	// restarting the acmenode process would do — and restore.
	reborn, err := transport.NewTCP(victim, peers[victim], peers)
	if err != nil {
		t.Fatalf("rebind %s: %v", peers[victim], err)
	}
	defer reborn.Close()
	rebornSys, err := NewSystemWithNetwork(cfg, reborn)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebornSys.ResumeRole(ctx, victim); err != nil {
		t.Errorf("resume %s: %v", victim, err)
		cancel()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, err := range failures {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if collected == nil {
		t.Fatal("collector returned no result")
	}
	got := sortedReports(collected)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TCP kill-and-restore run diverged from the uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestDeviceRestoreWarmRejoin: a killed device restored from its
// snapshot must re-enter the run through the resync machinery and
// report — and a device with no usable snapshot must degrade to the
// plain cold rejoin rather than fail. The restored device rebuilds its
// backbone features from the snapshot's model; its reported accuracy
// must be the one the reference path computes for the model it saved.
func TestDeviceRestoreWarmRejoin(t *testing.T) {
	cfg := restoreConfig(t.TempDir())
	cfg.CheckpointDir = t.TempDir()
	// The victim needs cluster peers to satisfy the quorum while gone.
	victimID, victimEdge := slowDeviceInLargestCluster(t, cfg)
	cfg.Straggler.Quorum = 0.5
	cfg.Straggler.Deadline = 150 * time.Millisecond

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, di := range sys.Clusters()[victimEdge] {
		if sys.Devices()[di].ID == victimID {
			victim = sys.Devices()[di].Name()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()

	var (
		wg        sync.WaitGroup
		devDead   sync.WaitGroup
		mu        sync.Mutex
		collected *Result
		failures  []error
	)
	for _, role := range sys.RoleNames() {
		role := role
		runCtx := ctx
		if role == victim {
			runCtx = victimCtx
			devDead.Add(1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if role == victim {
				defer devDead.Done()
			}
			res, err := sys.RunRole(runCtx, role)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && role != victim {
				failures = append(failures, fmt.Errorf("%s: %w", role, err))
				cancel()
				return
			}
			if res != nil {
				collected = res
			}
		}()
	}

	// Kill the device once it has persisted at least one snapshot.
	path := sys.checkpointFile(victim)
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("device snapshot never appeared")
		}
		var snap DeviceSnapshot
		if _, err := checkpoint.ReadFile(path, &snap); err == nil && snap.Round >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	kill()
	devDead.Wait()

	if err := sys.ResumeRole(ctx, victim); err != nil {
		t.Errorf("resume %s: %v", victim, err)
		cancel()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, err := range failures {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if collected == nil {
		t.Fatal("collector returned no result")
	}
	if got, want := len(collected.Reports), len(sys.Devices()); got != want {
		t.Fatalf("restored-device run completed with %d reports, want %d", got, want)
	}
	checkSavedModels(t, sys, cfg.CheckpointDir, collected.Reports)
}

// TestCheckpointValidation pins the config contract around the
// durability options.
func TestCheckpointValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Checkpoint.Path = t.TempDir()
	cfg.Fleet.SampleFrac = 0.5
	if err := cfg.Validate(); err != nil {
		t.Fatalf("checkpoint + participation sampling rejected: %v", err)
	}
	cfg.Fleet.SampleFrac = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid checkpoint config rejected: %v", err)
	}
	cfg.Checkpoint.Every = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative checkpoint interval accepted")
	}

	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ResumeRole(context.Background(), "edge-0"); err == nil {
		t.Fatal("ResumeRole without a checkpoint path accepted")
	}
}

// TestResumeRejectsForeignSnapshot: a snapshot from a different run
// configuration must be refused, not restored into the wrong run.
func TestResumeRejectsForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := restoreConfig(dir)
	runPlain(t, cfg) // leaves snapshots behind

	other := cfg
	other.Seed++
	sys, err := NewSystem(other)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sys.ResumeRole(ctx, edgeName(0)); err == nil {
		t.Fatal("edge resume accepted a snapshot from a different seed")
	}
}
