//go:build goexperiment.synctest

package core

import (
	"context"
	"testing"
	"testing/synctest"
	"time"
)

// runVirtual runs cfg's fleet to completion inside a synctest bubble.
// There the clock moves only when every goroutine of the run is
// blocked, so computing takes no time at all, and a straggler's delay,
// a gather deadline and a gather's wall time read exact durations,
// whatever the machine's load. `make virtual` runs these tests.
func runVirtual(t *testing.T, cfg Config) *Result {
	t.Helper()
	var res *Result
	var err error
	synctest.Run(func() {
		var sys *System
		if sys, err = NewSystem(cfg); err != nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
		defer cancel()
		res, err = sys.Run(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStragglerCutoffVirtual is TestStragglerCutoffMemory on the virtual
// clock, where its "less than" becomes exact: without the cutoff the
// slow edge waits out the 300 ms straggler in each of 3 rounds, 900 ms
// in all; with a 75 ms deadline it cuts the straggler in every round
// and waits 225 ms.
func TestStragglerCutoffVirtual(t *testing.T) {
	base := tinyConfig()
	base.Phase2Rounds = 3
	base.Wire.DeltaImportance = true
	_, slowEdge := slowDeviceInLargestCluster(t, base)
	base.Straggler.SlowDeviceDelay = 300 * time.Millisecond

	slowEdgeWait := func(res *Result) (wait time.Duration, cutoffs int) {
		for _, rs := range res.Phase2Rounds {
			if rs.EdgeID == slowEdge {
				wait += time.Duration(rs.GatherWallNS)
				cutoffs += rs.CutoffCount
			}
		}
		return wait, cutoffs
	}

	baseline := runVirtual(t, base)
	if wait, cutoffs := slowEdgeWait(baseline); wait != 900*time.Millisecond || cutoffs != 0 {
		t.Errorf("no cutoff: the slow edge waited %v with %d cutoffs, want 900ms and 0", wait, cutoffs)
	}

	cutCfg := base
	cutCfg.Straggler.Quorum = 0.5
	cutCfg.Straggler.Deadline = 75 * time.Millisecond
	cut := runVirtual(t, cutCfg)
	if wait, cutoffs := slowEdgeWait(cut); wait != 225*time.Millisecond || cutoffs != 3 {
		t.Errorf("cutoff: the slow edge waited %v with %d cutoffs, want 225ms and 3", wait, cutoffs)
	}
	if len(cut.Reports) != len(baseline.Reports) {
		t.Fatalf("cutoff run lost reports: %d vs %d", len(cut.Reports), len(baseline.Reports))
	}
}

// TestLateLeaveAtInviteVirtual is TestLateLeaveKeepsRejoinedDeviceSampled's
// predecessor-at-invite case in a bubble, where it is deterministic: the
// dead predecessor's LEAVE lands in its successor's first round. An edge
// that judged it by the round departed the live device there, and the
// run hung until its 3-minute context ended, at exactly 3m0s of virtual
// time, in every run at GOMAXPROCS 1 and 2.
func TestLateLeaveAtInviteVirtual(t *testing.T) {
	cfg := lateLeaveConfig()
	victimID, victimEdge := slowDeviceInLargestCluster(t, cfg)
	var out lateLeaveOutcome
	synctest.Run(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		defer cancel()
		out = runLateLeave(ctx, cancel, cfg, victimID, victimEdge, atInvite, false)
	})
	out.check(t, cfg.Phase2Rounds, false)
}
