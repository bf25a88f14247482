package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// schedulerConfig is the sampled fleet with the Pareto round scheduler
// replacing the uniform draw, paced over enough rounds for the
// scheduler's telemetry (wall EWMAs, importance deltas, warm chains) to
// shape the picks.
func schedulerConfig() Config {
	cfg := samplingConfig()
	cfg.Phase2Rounds = 6
	cfg.Fleet.Scheduler.Mode = "pareto"
	return cfg
}

// deviceRoundsIn returns the ascending rounds in which the device
// participated on its edge, per the recorded traces.
func deviceRoundsIn(trace []sampledTrace, edgeID, devID int) []int {
	var rounds []int
	for _, tr := range trace {
		if tr.EdgeID != edgeID {
			continue
		}
		for _, id := range tr.Sampled {
			if id == devID {
				rounds = append(rounds, tr.Round)
			}
		}
	}
	sort.Ints(rounds)
	return rounds
}

// runSchedulerMemory runs cfg end to end in memory and returns the
// participation trace with the result.
func runSchedulerMemory(t *testing.T, cfg Config) (*System, *Result, []sampledTrace) {
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
	trace := traceOf(res.Phase2Rounds)
	if len(trace) == 0 {
		t.Fatal("scheduled run recorded no phase-2 rounds")
	}
	return sys, res, trace
}

// stragglerDelay is how long the delayed device of these tests sleeps
// per round: far past 8× the fleet's median round, so the scheduler must
// class it slow on any transport. Under the race detector every device's
// round is an order of magnitude slower — over TCP the median reaches
// 150 ms and 800 ms is inside the guard — so the delay grows with it.
func stragglerDelay() time.Duration {
	if raceDetectorEnabled {
		return 3 * time.Second
	}
	return 800 * time.Millisecond
}

// pickScheduledVictim probes cfg without any straggler and returns a
// device the scheduler invites at some round >= 1 (the phase-2 round-0
// gather shares the setup gather's round stamp, so round 0 yields no
// usable wall observation), with its edge and that first round.
func pickScheduledVictim(t *testing.T, cfg Config) (devID, edgeID, firstRound int) {
	t.Helper()
	_, _, trace := runSchedulerMemory(t, cfg)
	firstRound = -1
	for _, tr := range trace {
		if tr.Round < 1 || len(tr.Sampled) == 0 {
			continue
		}
		if firstRound < 0 || tr.Round < firstRound {
			devID, edgeID, firstRound = tr.Sampled[0], tr.EdgeID, tr.Round
		}
	}
	if firstRound < 0 {
		t.Fatal("no device scheduled at any round >= 1")
	}
	return devID, edgeID, firstRound
}

// assertStragglerDropped: up to and including the round where the
// scheduler first observes the delayed device's wall (firstRound —
// telemetry is identical to the undelayed run until that round's
// gather), its participations must match the undelayed run; after it,
// the delayed observation lands far past the 8x-median slowness guard
// and the device must never be invited again.
func assertStragglerDropped(t *testing.T, label string, base, got []int, firstRound int) {
	t.Helper()
	var want []int
	for _, r := range base {
		if r <= firstRound {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: straggler participated in rounds %v, want %v (undelayed prefix %v through round %d, nothing after)", label, got, want, base, firstRound)
	}
}

// TestSchedulerDeterminismMemory: the scored picks must be a pure
// function of (seed, round, telemetry), and the telemetry itself must
// be deterministic at the granularity the scheduler reads it (slowness
// classes, byte counts, importance EWMAs). Two identical seeded runs
// must therefore invite identical subsets every round and produce
// byte-identical device reports — and a device straggling 800 ms per
// round must never be invited again after the scheduler has observed
// one of its rounds.
func TestSchedulerDeterminismMemory(t *testing.T) {
	cfg := schedulerConfig()
	victim, victimEdge, firstRound := pickScheduledVictim(t, cfg)
	base := cfg
	cfg.Straggler.SlowDeviceID = victim
	cfg.Straggler.SlowDeviceDelay = stragglerDelay()

	_, _, baseTrace := runSchedulerMemory(t, base)
	sys1, res1, trace1 := runSchedulerMemory(t, cfg)
	_, res2, trace2 := runSchedulerMemory(t, cfg)

	if !reflect.DeepEqual(trace1, trace2) {
		t.Fatalf("scheduled picks diverge across identical runs:\nfirst:  %+v\nsecond: %+v", trace1, trace2)
	}
	if !reflect.DeepEqual(sortedReports(res1), sortedReports(res2)) {
		t.Fatal("scheduled runs produced different device reports")
	}
	// The scheduler keeps the uniform sampler's cluster quota.
	for _, tr := range trace1 {
		size := len(sys1.Clusters()[tr.EdgeID])
		want := int(math.Ceil(cfg.Fleet.SampleFrac * float64(size)))
		if len(tr.Sampled) != want {
			t.Fatalf("edge %d round %d invited %v of %d devices, want %d", tr.EdgeID, tr.Round, tr.Sampled, size, want)
		}
	}
	assertStragglerDropped(t, "memory",
		deviceRoundsIn(baseTrace, victimEdge, victim),
		deviceRoundsIn(trace1, victimEdge, victim), firstRound)
}

// TestSchedSmokeTCP: the scheduler's picks must not depend on the
// transport. Raw wall-clock EWMAs differ across memory and TCP, but
// the scheduler only reads them through slowness classes (a guarded
// multiple of the fleet median), so a memory run and a TCP cluster of
// one process per role must invite identical subsets every round —
// including dropping the observed straggler on both transports.
func TestSchedSmokeTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-role TCP cluster")
	}
	cfg := schedulerConfig()
	victim, victimEdge, firstRound := pickScheduledVictim(t, cfg)
	base := cfg
	cfg.Straggler.SlowDeviceID = victim
	cfg.Straggler.SlowDeviceDelay = stragglerDelay()

	_, _, baseTrace := runSchedulerMemory(t, base)
	_, _, memTrace := runSchedulerMemory(t, cfg)

	// TCP run: one system per role, exactly as acmenode processes.
	probe, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	roles := probe.RoleNames()
	nets, _ := tcpCluster(t, roles)
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		edgeSys  []*System
		failures []error
	)
	for _, role := range roles {
		sys, err := NewSystemWithNetwork(cfg, nets[role])
		if err != nil {
			t.Fatal(err)
		}
		for e := range sys.Clusters() {
			if role == edgeName(e) {
				edgeSys = append(edgeSys, sys)
			}
		}
		role := role
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sys.RunRole(ctx, role); err != nil {
				mu.Lock()
				failures = append(failures, fmt.Errorf("%s: %w", role, err))
				mu.Unlock()
				cancel()
			}
		}()
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
	var tcpRounds []Phase2RoundStat
	for _, sys := range edgeSys {
		tcpRounds = append(tcpRounds, sys.phase2RoundsCopy()...)
	}
	tcpTrace := traceOf(tcpRounds)
	if !reflect.DeepEqual(memTrace, tcpTrace) {
		t.Fatalf("scheduled picks diverge across transports:\nmemory: %+v\ntcp:    %+v", memTrace, tcpTrace)
	}
	assertStragglerDropped(t, "tcp",
		deviceRoundsIn(baseTrace, victimEdge, victim),
		deviceRoundsIn(tcpTrace, victimEdge, victim), firstRound)
}
