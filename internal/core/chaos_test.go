package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"acme/internal/chaos"
	"acme/internal/transport"
)

// byzantineConfig is tinyConfig with one edge over a six-device
// cluster (detection needs at least three uploads per round to have a
// distribution to screen against), several loop rounds, one inflating
// device, and the edge-side detector armed.
func byzantineConfig() Config {
	cfg := tinyConfig()
	cfg.EdgeServers = 1
	cfg.Fleet.Spec.Clusters = 2
	cfg.Fleet.Spec.DevicesPerCluster = 3
	cfg.Phase2Rounds = 4
	cfg.Fleet.Byzantine = ByzantineOptions{Strategy: "inflate", Count: 1, Prob: 1}
	cfg.Fleet.Detect = true
	return cfg
}

// checkByzantineOutcome asserts one adversarial run's detection story:
// device 0 (the liar) is flagged, evicted at the strike limit, and the
// run completes with every honest device — and only them — reporting.
func checkByzantineOutcome(t *testing.T, res *Result, devices int) {
	t.Helper()
	suspected, evicted := false, false
	for _, rs := range res.Phase2Rounds {
		for _, id := range rs.Suspects {
			if id == 0 {
				suspected = true
			} else {
				t.Errorf("round %d flagged honest device %d", rs.Round, id)
			}
		}
		for _, id := range rs.EvictedDevices {
			if id == 0 {
				evicted = true
			} else {
				t.Errorf("round %d evicted honest device %d", rs.Round, id)
			}
		}
	}
	if !suspected {
		t.Error("detector never flagged the inflating device")
	}
	if !evicted {
		t.Error("inflating device was never evicted")
	}
	if got, want := len(res.Reports), devices-1; got != want {
		t.Errorf("run finished with %d reports, want %d (all devices minus the evicted liar)", got, want)
	}
	seen := make(map[int]bool, len(res.Reports))
	for _, rep := range res.Reports {
		if rep.DeviceID == 0 {
			t.Error("evicted device still reported")
		}
		seen[rep.DeviceID] = true
	}
	for id := 1; id < devices; id++ {
		if !seen[id] {
			t.Errorf("honest device %d missing from the reports", id)
		}
	}
}

// TestByzantineDetectionEvictsMemory: with one device inflating every
// upload by 20× and detection armed, the edge must flag it by its
// Wasserstein anomaly score, exclude its uploads from the combine, and
// evict it at the strike limit — after which the run completes with
// only the honest devices reporting.
func TestByzantineDetectionEvictsMemory(t *testing.T) {
	cfg := byzantineConfig()
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
	checkByzantineOutcome(t, res, len(sys.Devices()))
	// Strike limit 2: flagged in the first two rounds, evicted in the
	// second.
	if len(res.Phase2Rounds) == 0 || len(res.Phase2Rounds[0].Suspects) == 0 {
		t.Error("liar not flagged in round 0")
	}
}

// TestByzantineDrawsPinned pins the seeded lie stream: with the liar
// lying in about half its rounds, which rounds flag and evict it, and
// what every device reports, follow from the per-(device, round) lie
// draws, so a change to the seed they read moves the hash. At seed 4
// the liar is flagged in round 0, lies not in round 1, and is flagged
// and evicted in round 2.
func TestByzantineDrawsPinned(t *testing.T) {
	cfg := byzantineConfig()
	cfg.Fleet.Byzantine.Prob = 0.5
	cfg.Seed = 4
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
	h := fnv.New64a()
	for _, rs := range res.Phase2Rounds {
		fmt.Fprintf(h, "%d %v %v\n", rs.Round, rs.Suspects, rs.EvictedDevices)
	}
	for _, rep := range res.Reports {
		fmt.Fprintf(h, "%+v\n", rep)
	}
	const want uint64 = 0x15b2754677eadc59
	if got := h.Sum64(); got != want {
		t.Fatalf("byzantine run hash %#x, want %#x", got, want)
	}
}

// TestByzantineDetectTCP is the chaos smoke (make chaos-smoke): one
// adversarial trial over loopback TCP with seeded link chaos on every
// device link. Detection must fire exactly as on the in-memory
// transport — the liar flagged and evicted, the honest devices
// reporting to their edge.
func TestByzantineDetectTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-role TCP cluster")
	}
	cfg := byzantineConfig()
	probe, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	roles := probe.RoleNames()
	tcps, _ := tcpCluster(t, roles)

	// Wrap every device transport in the chaos link model (delay-only
	// profile: duplication would violate the protocol's exactly-once
	// expectations). The edge sees adversarial content and reports
	// arriving over faulty links at once.
	nets := make(map[string]transport.Network, len(roles))
	for _, role := range roles {
		nets[role] = tcps[role]
	}
	var chaosNets []*chaos.Net
	for e, members := range probe.Clusters() {
		_ = e
		for _, di := range members {
			name := probe.Devices()[di].Name()
			cn := chaos.New(tcps[name], chaos.Options{
				Seed: 77,
				Default: chaos.Profile{
					BaseDelay:    200 * time.Microsecond,
					Jitter:       2 * time.Millisecond,
					SpikeProb:    0.15,
					SpikeDelay:   5 * time.Millisecond,
					BandwidthBps: 16 << 20,
				},
			})
			nets[name] = cn
			chaosNets = append(chaosNets, cn)
		}
	}
	defer func() {
		// Closing a chaos wrapper closes its inner TCP transport; the
		// unwrapped roles close theirs directly.
		for role, n := range nets {
			if cn, ok := n.(*chaos.Net); ok {
				cn.Close()
			} else {
				tcps[role].Close()
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	systems := roleSystems(t, cfg, nets)
	reports := startRoles(ctx, cancel, roles, func(role string) *System { return systems[role] }, "", nil).wait(t)
	for _, cn := range chaosNets {
		cn.Wait()
		if err := cn.Err(); err != nil {
			t.Errorf("chaos link error: %v", err)
		}
	}
	// In per-process mode the detection trace lives on the edge's own
	// System, next to the reports it returned.
	res := &Result{Reports: reports, Phase2Rounds: systems["edge-0"].phase2RoundsCopy()}
	checkByzantineOutcome(t, res, len(probe.Devices()))
}

// TestByzantineConfigValidation pins the adversarial config contract.
func TestByzantineConfigValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Fleet.Byzantine = ByzantineOptions{Strategy: "omniscient", Count: 1, Prob: 1}
	if err := cfg.Validate(); err == nil {
		t.Error("unknown byzantine strategy accepted")
	}
	cfg.Fleet.Byzantine = ByzantineOptions{Strategy: "inflate", Count: 1, Prob: 1.5}
	if err := cfg.Validate(); err == nil {
		t.Error("lie probability above 1 accepted")
	}
	cfg.Fleet.Byzantine = ByzantineOptions{Strategy: "inflate", Count: -1, Prob: 0.5}
	if err := cfg.Validate(); err == nil {
		t.Error("negative byzantine count accepted")
	}
	// Config.Chaos names a ChaosLinks entry or nothing, and a straggler
	// delay needs a cluster with a peer that can carry the round
	// without the straggler.
	cfg.Fleet.Byzantine = ByzantineOptions{}
	for _, link := range []string{"", "ideal", "default", "harsh"} {
		cfg.Chaos = link
		if err := cfg.Validate(); err != nil {
			t.Errorf("chaos link %q rejected: %v", link, err)
		}
	}
	cfg.Chaos = "lossy"
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), `unknown chaos link "lossy"`) {
		t.Errorf("unknown chaos link: %v", err)
	}

	cfg = tinyConfig()
	cfg.Straggler.SlowDeviceDelay = 30 * time.Millisecond
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if id, edge := sys.Straggler(); edge < 0 || sys.Devices()[sys.Clusters()[edge][0]].ID != id {
		t.Errorf("straggler device %d of edge %d is not its cluster's first", id, edge)
	}
	cfg.Fleet.Spec.DevicesPerCluster = 1 // two edges, one device each
	if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), "cluster of ≥2 devices") {
		t.Errorf("straggler delay on one-device clusters: %v", err)
	}
	cfg.Straggler.SlowDeviceDelay = 0
	sys, err = NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if id, edge := sys.Straggler(); id != -1 || edge != -1 {
		t.Errorf("one-device clusters name straggler %d of edge %d, want none", id, edge)
	}
}
