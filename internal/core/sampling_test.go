package core

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"acme/internal/transport"
)

// sampledTrace flattens a result's per-round participation into a
// comparable shape.
type sampledTrace struct {
	EdgeID  int
	Round   int
	Sampled []int
}

func traceOf(rounds []Phase2RoundStat) []sampledTrace {
	out := make([]sampledTrace, 0, len(rounds))
	for _, rs := range rounds {
		out = append(out, sampledTrace{EdgeID: rs.EdgeID, Round: rs.Round, Sampled: append([]int(nil), rs.Sampled...)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EdgeID != out[j].EdgeID {
			return out[i].EdgeID < out[j].EdgeID
		}
		return out[i].Round < out[j].Round
	})
	return out
}

func samplingConfig() Config {
	cfg := tinyConfig()
	cfg.Fleet.Spec.DevicesPerCluster = 4
	cfg.Phase2Rounds = 3
	cfg.Fleet.SampleFrac = 0.5
	cfg.Wire.DeltaImportance = true // exercise the gap-reset shadow protocol
	return cfg
}

// TestSamplingDeterminismMemoryTCP: the participation draw depends only
// on (seed, round, membership), so a memory run and a TCP run of the
// same config must invite the identical device subsets every round —
// and every round must invite exactly ceil(frac × cluster) devices.
func TestSamplingDeterminismMemoryTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-role TCP cluster")
	}
	cfg := samplingConfig()

	// Memory run.
	memSys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	memRes, err := memSys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	memTrace := traceOf(memRes.Phase2Rounds)
	if len(memTrace) == 0 {
		t.Fatal("memory run recorded no phase-2 rounds")
	}
	for _, tr := range memTrace {
		size := len(memSys.Clusters()[tr.EdgeID])
		want := int(math.Ceil(cfg.Fleet.SampleFrac * float64(size)))
		if len(tr.Sampled) != want {
			t.Fatalf("edge %d round %d invited %v of %d devices, want %d", tr.EdgeID, tr.Round, tr.Sampled, size, want)
		}
	}
	if got, wantReports := len(memRes.Reports), len(memSys.Devices()); got != wantReports {
		t.Fatalf("sampled memory run collected %d reports, want %d", got, wantReports)
	}

	// TCP run: one system per role, exactly as acmenode processes.
	probe, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	roles := probe.RoleNames()
	nets, _ := tcpCluster(t, roles)
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()
	systems := roleSystems(t, cfg, nets)
	startRoles(ctx, cancel, roles, func(role string) *System { return systems[role] }, "", nil).wait(t)
	var tcpRounds []Phase2RoundStat
	for e := range probe.Clusters() {
		tcpRounds = append(tcpRounds, systems[edgeName(e)].phase2RoundsCopy()...)
	}
	tcpTrace := traceOf(tcpRounds)
	if !reflect.DeepEqual(memTrace, tcpTrace) {
		t.Fatalf("participation subsets diverge across transports:\nmemory: %+v\ntcp:    %+v", memTrace, tcpTrace)
	}
}

// TestLeaveShrinksRoundTCP: a device that dies before its first upload
// must shrink the round instead of hanging it — with no straggler
// cutoff configured, the edge's gather unblocks on the role-level
// LEAVE, combines over the remaining members, and the report phase
// does not wait for the dead device's report.
func TestLeaveShrinksRoundTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-role TCP cluster with churn")
	}
	cfg := tinyConfig()
	cfg.Phase2Rounds = 2
	cfg.Wire.DeltaImportance = true
	// No cutoff: the LEAVE alone must unblock the gather.
	victimID, victimEdge := slowDeviceInLargestCluster(t, cfg)
	// Slow the victim's first round so it reliably dies between the
	// setup handshake and its first importance upload.
	cfg.Straggler.SlowDeviceDelay = 3 * time.Second

	probe, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := ""
	for _, di := range probe.Clusters()[victimEdge] {
		if probe.Devices()[di].ID == victimID {
			victim = probe.Devices()[di].Name()
		}
	}
	roles := probe.RoleNames()
	nets, _ := tcpCluster(t, roles)
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()
	systems := roleSystems(t, cfg, nets)

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	run := startRoles(ctx, cancel, roles, func(role string) *System { return systems[role] }, victim, victimCtx)

	// Kill the victim after setup (it received its model package) but
	// before its first importance upload — the slow-device delay holds
	// that window open.
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("victim never received its model package")
		}
		st := nets[victim].Stats()
		_, hdrRecv := st.BytesForKinds(transport.KindHeader)
		up, _ := st.BytesForKinds(transport.KindImportanceSet, transport.KindImportanceDelta)
		if up > 0 {
			t.Fatal("victim uploaded before it could be killed; widen the slow-device delay")
		}
		if hdrRecv > 0 {
			killVictim()
			nets[victim].Close()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	reports := run.wait(t)
	if got, want := len(reports), len(probe.Devices())-1; got != want {
		t.Fatalf("run completed with %d reports, want %d (every member but the dead one)", got, want)
	}
	for _, rep := range reports {
		if rep.DeviceID == victimID {
			t.Fatalf("dead device %d reported", victimID)
		}
	}
}

// TestFleetSmoke runs a 2000-device fleet in one process at 5%
// participation — the memory-scaling path (shared shards) plus the
// registry-driven sampled rounds, end to end (make fleet-smoke).
func TestFleetSmoke(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("2000-device fleet run")
	}
	cfg := DefaultConfig()
	cfg.EdgeServers = 8
	cfg.Fleet.Spec.Clusters = 8
	cfg.Fleet.Spec.DevicesPerCluster = 250
	cfg.SamplesPerDevice = 16
	cfg.Phase2Rounds = 2
	cfg.Fleet.SampleFrac = 0.05
	cfg.Fleet.SharedShards = true
	cfg.DataGroups = 8

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	res, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Reports), 2000; got != want {
		t.Fatalf("collected %d reports, want %d", got, want)
	}
	// Clusters form around device attributes, so sizes are uneven; each
	// edge must invite exactly ceil(frac × its cluster) every round.
	for _, rs := range res.Phase2Rounds {
		size := len(sys.Clusters()[rs.EdgeID])
		want := int(math.Ceil(cfg.Fleet.SampleFrac * float64(size)))
		if rs.SampledCount != want {
			t.Fatalf("edge %d round %d invited %d of %d devices, want %d", rs.EdgeID, rs.Round, rs.SampledCount, size, want)
		}
		if got := rs.DenseMessages + rs.DeltaMessages; got != want {
			t.Fatalf("edge %d round %d folded %d uploads, want %d (per-round traffic must scale with the sample)", rs.EdgeID, rs.Round, got, want)
		}
	}
}
