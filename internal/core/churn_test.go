package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"acme/internal/transport"
)

// slowDeviceInLargestCluster is the straggler NewSystem picks from
// cfg's deterministic fleet: a device of the largest cluster, so the
// straggler quorum can always be met by its cluster peers.
func slowDeviceInLargestCluster(t *testing.T, cfg Config) (deviceID, edgeID int) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if deviceID, edgeID = sys.Straggler(); edgeID < 0 {
		t.Fatal("no cluster with ≥2 devices; cutoff cannot trigger")
	}
	return deviceID, edgeID
}

// TestStragglerCutoffMemory: with one artificially slowed device and
// the quorum+deadline cutoff configured, every round must combine
// without the straggler — the run completes, CutoffCount records the
// cuts, late uploads are dropped as stale, and the edge's per-round
// gather wait drops well below the no-cutoff run that paces at the
// slow device.
func TestStragglerCutoffMemory(t *testing.T) {
	base := tinyConfig()
	base.Phase2Rounds = 3
	base.Wire.DeltaImportance = true // the cutoff must keep the delta shadows coherent
	_, slowEdge := slowDeviceInLargestCluster(t, base)
	base.Straggler.SlowDeviceDelay = 300 * time.Millisecond

	gatherWall := func(res *Result) (slow time.Duration) {
		for _, rs := range res.Phase2Rounds {
			if rs.EdgeID == slowEdge {
				slow += time.Duration(rs.GatherWallNS)
			}
		}
		return slow
	}
	run := func(cfg Config) *Result {
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

	// Baseline: no cutoff — every round waits out the straggler.
	baseline := run(base)

	cutCfg := base
	cutCfg.Straggler.Quorum = 0.5
	cutCfg.Straggler.Deadline = 75 * time.Millisecond
	cut := run(cutCfg)

	if len(cut.Reports) != len(baseline.Reports) {
		t.Fatalf("cutoff run lost reports: %d vs %d", len(cut.Reports), len(baseline.Reports))
	}
	var cutoffs, stale int
	for _, rs := range cut.Phase2Rounds {
		cutoffs += rs.CutoffCount
		stale += rs.StaleMessages
	}
	if cutoffs == 0 {
		t.Fatal("no round cut the straggler despite a 300ms delay against a 75ms deadline")
	}
	// Whether a late upload lands inside the next round's gather window
	// is timing-dependent; the stale-drop mechanism itself is pinned by
	// the transport-level gather tests.
	t.Logf("cutoffs %d, stale drops %d", cutoffs, stale)
	for _, rs := range baseline.Phase2Rounds {
		if rs.CutoffCount != 0 || rs.StaleMessages != 0 {
			t.Fatalf("baseline run recorded cutoffs: %+v", rs)
		}
	}
	slowWait, cutWait := gatherWall(baseline), gatherWall(cut)
	if cutWait >= slowWait {
		t.Fatalf("cutoff did not reduce the edge's gather wait: %v vs %v", cutWait, slowWait)
	}
}

// TestCutoffDisabledValidation pins the config contract: quorum and
// deadline come together or not at all.
func TestCutoffDisabledValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Straggler.Quorum = 0.75
	if err := cfg.Validate(); err == nil {
		t.Fatal("quorum without deadline accepted")
	}
	cfg.Straggler.Quorum = 0
	cfg.Straggler.Deadline = time.Second
	if err := cfg.Validate(); err == nil {
		t.Fatal("deadline without quorum accepted")
	}
	cfg.Straggler.Quorum = 1.5
	if err := cfg.Validate(); err == nil {
		t.Fatal("quorum above 1 accepted")
	}
	cfg.Straggler.Quorum = 0.75
	cfg.Straggler.Deadline = time.Second
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid cutoff config rejected: %v", err)
	}
}

// tcpCluster spins up one TCP listener per role on loopback, exactly
// as separate acmenode processes would.
func tcpCluster(t *testing.T, roles []string) (nets map[string]*transport.TCP, peers map[string]string) {
	t.Helper()
	nets = make(map[string]*transport.TCP, len(roles))
	peers = make(map[string]string, len(roles))
	for _, role := range roles {
		n, err := transport.NewTCP(role, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		nets[role] = n
		peers[role] = n.Addr()
	}
	for _, role := range roles {
		nets[role].SetPeers(peers)
	}
	return nets, peers
}

// TestChurnRejoinTCP is the churn smoke (make churn-smoke): a full run
// over loopback TCP in which one device is killed mid-loop — its
// process context cancelled and its transport torn down — and then
// rejoins via the RESYNC-REQUEST control path on a fresh transport.
// The run must complete with every device reporting, and the rejoined
// device must re-enter the sparse delta exchange (dense re-seed, then
// deltas again).
func TestChurnRejoinTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-role TCP cluster with churn")
	}
	cfg := tinyConfig()
	cfg.Phase2Rounds = 4
	cfg.Wire.DeltaImportance = true
	cfg.Straggler.Quorum = 0.5
	cfg.Straggler.Deadline = 250 * time.Millisecond
	runChurnRejoinTCP(t, cfg, false)
}

// TestChurnRejoinTCPNoCutoff: rejoin must work independently of the
// straggler cutoff — the edge blocks on the dead device until the
// RESYNC-REQUEST excludes it mid-gather, and a rejoined device racing
// ahead of the still-gathering cluster is buffered by the session, not
// rejected as a round violation.
func TestChurnRejoinTCPNoCutoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-role TCP cluster with churn")
	}
	cfg := tinyConfig()
	cfg.Phase2Rounds = 4
	cfg.Wire.DeltaImportance = true
	runChurnRejoinTCP(t, cfg, false)
}

// TestChurnRejoinTCPDiesAgain: a rejoined device that dies again after
// its first upload, its role returning before its transport closes as in
// acmenode, sends a LEAVE stamped with its life. TCP.Close's own LEAVE is
// stamped with the setup life, which the edge ignores once it granted a
// newer one. The edge must depart the device on the first, or, without
// a cutoff, it waits for the device's upload or report until the run's
// cap.
func TestChurnRejoinTCPDiesAgain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-role TCP cluster with churn")
	}
	cfg := tinyConfig()
	cfg.Phase2Rounds = 4
	cfg.Wire.DeltaImportance = true
	runChurnRejoinTCP(t, cfg, true)
}

// runChurnRejoinTCP kills one device mid-loop and rejoins it; with
// diesAgain it kills the rejoined device after its first upload too, and
// the run must complete without it.
func runChurnRejoinTCP(t *testing.T, cfg Config, diesAgain bool) {
	t.Helper()

	// Pace the run with the injected straggler: every round then
	// outlasts a restart by far, so the rejoin lands early enough to
	// leave the reborn device its dense round and delta rounds after
	// it. An unpaced cluster can finish its loop before the RESYNC
	// arrives, leaving the rejoiner nothing to play or no one to answer
	// it. The victim is a cluster peer of the straggler, so the quorum
	// can be met while it is gone.
	cfg.Straggler.SlowDeviceDelay = 100 * time.Millisecond
	probe, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slowID, slowEdge := probe.Straggler()
	victim, victimID := "", -1
	for _, di := range probe.Clusters()[slowEdge] {
		if probe.Devices()[di].ID != slowID {
			victim, victimID = probe.Devices()[di].Name(), probe.Devices()[di].ID
		}
	}
	roles := probe.RoleNames()
	nets, peers := tcpCluster(t, roles)
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()
	systems := roleSystems(t, cfg, nets)

	ctx, cancel := cappedContext(t, runLimit)
	defer cancel()
	victimCtx, killVictim := context.WithCancel(ctx)
	defer killVictim()
	run := startRoles(ctx, cancel, roles, func(role string) *System { return systems[role] }, victim, victimCtx)

	// Kill the victim once it has sent its first importance upload —
	// mid-loop, after setup completed.
	victimAddr := peers[victim]
	killed := false
	deadline := time.Now().Add(3 * time.Minute)
	for !killed {
		if time.Now().After(deadline) || ctx.Err() != nil {
			t.Fatal("victim never reached the importance loop")
		}
		up, _ := nets[victim].Stats().BytesForKinds(transport.KindImportanceDelta, transport.KindImportanceSet)
		if up > 0 {
			killVictim()
			nets[victim].Close()
			killed = true
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Restart it on the same address and rejoin the run in progress.
	reborn, err := transport.NewTCP(victim, victimAddr, peers)
	if err != nil {
		t.Fatalf("rebind %s: %v", victimAddr, err)
	}
	defer reborn.Close()
	rebornCtx, killReborn := context.WithCancel(ctx)
	defer killReborn()
	var rebornNet transport.Network = reborn
	if diesAgain {
		rebornNet = &uploadKill{Network: reborn, device: victim, kill: killReborn}
	}
	rebornSys, err := NewSystemWithNetwork(cfg, rebornNet)
	if err != nil {
		t.Fatal(err)
	}
	err = rebornSys.RejoinRole(rebornCtx, victim)
	if diesAgain {
		reborn.Close()
		if !errors.Is(err, context.Canceled) {
			run.finish("rejoined "+victim, nil, err)
		}
		reports := run.wait(t)
		if got, want := len(reports), len(probe.Devices())-1; got != want {
			t.Fatalf("run completed with %d reports, want %d", got, want)
		}
		for _, rep := range reports {
			if rep.DeviceID == victimID {
				t.Fatalf("%s reported after it died again", victim)
			}
		}
		return
	}
	run.finish("rejoined "+victim, nil, err)
	if got, want := len(run.wait(t)), len(probe.Devices()); got != want {
		t.Fatalf("run completed with %d reports, want %d (rejoined device missing?)", got, want)
	}
	// The rejoined instance must have re-entered the sparse exchange:
	// uploads under the delta kind, downlinks under the delta kind.
	st := reborn.Stats()
	upSent, _ := st.BytesForKinds(transport.KindImportanceDelta)
	_, downRecv := st.BytesForKinds(transport.KindImportanceDownDelta)
	if upSent == 0 {
		t.Fatal("rejoined device sent no delta uploads")
	}
	if downRecv == 0 {
		t.Fatal("rejoined device received no delta downlinks")
	}
}

// TestRejoinRoleRejectsNonDevices pins the rejoin contract, and that
// no entry point knows a collector role: the edges collect the reports.
func TestRejoinRoleRejectsNonDevices(t *testing.T) {
	sys, err := NewSystem(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range []string{"cloud", "edge-0", "collector", "device-999"} {
		if err := sys.RejoinRole(context.Background(), role); err == nil {
			t.Fatalf("RejoinRole(%q) accepted", role)
		}
	}
	for _, role := range sys.RoleNames() {
		if role == "collector" {
			t.Fatalf("RoleNames lists a collector: %v", sys.RoleNames())
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sys.RunRole(ctx, "collector"); err == nil {
		t.Fatal(`RunRole("collector") accepted`)
	}
	cfg := tinyConfig()
	cfg.Checkpoint.Path = t.TempDir()
	ckpt, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.ResumeRole(ctx, "collector"); err == nil {
		t.Fatal(`ResumeRole("collector") accepted`)
	}
}
