package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"acme/internal/transport"
	"acme/internal/wire"
)

// TestFullParticipationIsAnImplicitInvite states the claim the single
// device loop rests on: a fleet in which every round invites the whole
// cluster (a sample fraction whose Sampler.Size is every member)
// computes and uploads exactly what the self-paced fleet does. The only
// thing sampling adds is the ROUND-INVITE control records.
func TestFullParticipationIsAnImplicitInvite(t *testing.T) {
	if testing.Short() {
		t.Skip("four full runs")
	}
	for _, shaped := range []bool{false, true} {
		name := "dense"
		if shaped {
			name = "delta+mixed"
		}
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Fleet.Spec.DevicesPerCluster = 3
			cfg.Phase2Rounds = 4
			cfg.Seed = 1
			if shaped {
				cfg.Wire.DeltaImportance = true
				cfg.Wire.Quantization = QuantMixed
			}
			selfPaced := runCfg(t, cfg)
			cfg.Fleet.SampleFrac = 0.99
			invited := runCfg(t, cfg)

			for _, rs := range invited.Phase2Rounds {
				if rs.SampledCount != 3 {
					t.Fatalf("edge %d round %d invited %d of 3 members: the fraction no longer covers the cluster",
						rs.EdgeID, rs.Round, rs.SampledCount)
				}
			}
			sortReportsByID(selfPaced.Reports)
			sortReportsByID(invited.Reports)
			if !reflect.DeepEqual(selfPaced.Reports, invited.Reports) {
				t.Fatalf("reports differ:\n self-paced %+v\n invited    %+v", selfPaced.Reports, invited.Reports)
			}
			if selfPaced.UploadBytes != invited.UploadBytes || selfPaced.DownlinkBytes != invited.DownlinkBytes {
				t.Fatalf("traffic differs: self-paced %d up / %d down, invited %d up / %d down",
					selfPaced.UploadBytes, selfPaced.DownlinkBytes, invited.UploadBytes, invited.DownlinkBytes)
			}
			if n := selfPaced.Stats.MessagesByKind()[transport.KindControl]; n != 0 {
				t.Fatalf("self-paced run sent %d control records; an implicit invite moves no bytes", n)
			}
			if n := invited.Stats.MessagesByKind()[transport.KindControl]; n == 0 {
				t.Fatal("invited run sent no ROUND-INVITE records")
			}
		})
	}
}

// exchangeTap is a Network that notes, per round, whether every layer
// of one device's delta uploads and delta downlinks travelled dense,
// and calls onUpload after forwarding each of that device's uploads.
type exchangeTap struct {
	transport.Network
	device   string
	onUpload func()

	mu        sync.Mutex
	upDense   map[int][]bool // round → one entry per upload seen
	downDense map[int][]bool
}

func allDense(layers []DeltaLayerPayload) bool {
	for _, l := range layers {
		if !l.Delta.Dense {
			return false
		}
	}
	return true
}

func (n *exchangeTap) Send(msg transport.Message) error {
	switch {
	case msg.From == n.device && msg.Kind == transport.KindImportanceDelta:
		var up DeltaUpload
		if err := wire.Decode(msg.Payload, &up); err != nil {
			return fmt.Errorf("tap: %w", err)
		}
		n.mu.Lock()
		n.upDense[up.Round] = append(n.upDense[up.Round], allDense(up.Layers))
		n.mu.Unlock()
		err := n.Network.Send(msg)
		n.onUpload()
		return err
	case msg.To == n.device && msg.Kind == transport.KindImportanceDownDelta:
		var dd DownlinkDelta
		if err := wire.Decode(msg.Payload, &dd); err != nil {
			return fmt.Errorf("tap: %w", err)
		}
		n.mu.Lock()
		n.downDense[dd.Round] = append(n.downDense[dd.Round], allDense(dd.Layers))
		n.mu.Unlock()
	}
	return n.Network.Send(msg)
}

// TestSampledRejoinReseedsDense: a device that dies mid-run under
// participation sampling and rejoins through RESYNC re-enters at a
// startRound past the rounds it missed, and both directions of its
// delta exchange restart dense there — the edge's side of the reset
// comes from the resync, the device's from being a fresh instance — so
// the cold decoder at either end never meets a sparse record.
func TestSampledRejoinReseedsDense(t *testing.T) {
	if testing.Short() {
		t.Skip("full run with a kill and a rejoin")
	}
	cfg := tinyConfig()
	cfg.Fleet.Spec.DevicesPerCluster = 3
	cfg.Phase2Rounds = 6
	cfg.Fleet.SampleFrac = 0.99 // every member, every round: no gap resets to hide behind
	cfg.Wire.DeltaImportance = true
	cfg.Wire.Quantization = QuantMixed
	victimID, victimEdge := slowDeviceInLargestCluster(t, cfg)
	victim := fmt.Sprintf("device-%d", victimID)

	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()
	// The victim dies the moment its first upload is on its way.
	var once sync.Once
	tap := &exchangeTap{Network: sys.Net, device: victim, onUpload: func() { once.Do(kill) },
		upDense: map[int][]bool{}, downDense: map[int][]bool{}}
	sys.Net = tap

	var (
		wg        sync.WaitGroup
		dead      = make(chan struct{})
		mu        sync.Mutex
		collected *Result
		failures  []error
	)
	for _, role := range sys.RoleNames() {
		role := role
		runCtx := ctx
		if role == victim {
			runCtx = victimCtx
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sys.RunRole(runCtx, role)
			if role == victim {
				close(dead)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failures = append(failures, fmt.Errorf("%s: %w", role, err))
				cancel()
			}
			if res != nil {
				collected = res
			}
		}()
	}
	select {
	case <-dead:
	case <-ctx.Done():
		t.Fatal("victim never died")
	}
	if err := sys.RejoinRole(ctx, victim); err != nil {
		t.Errorf("rejoin: %v", err)
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
	if collected == nil || len(collected.Reports) != len(sys.Devices()) {
		t.Fatalf("run completed without every device reporting: %+v", collected)
	}

	// The edge stamped the re-entry round on the resync it served.
	rejoin := -1
	for _, rs := range sys.phase2RoundsCopy() {
		if rs.EdgeID == victimEdge && rs.ResyncCount > 0 {
			rejoin = rs.Round + 1
		}
	}
	if rejoin <= 0 || rejoin >= cfg.Phase2Rounds {
		t.Fatalf("rejoin round %d is not mid-run (0 < r < %d)", rejoin, cfg.Phase2Rounds)
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	if up := tap.upDense[rejoin]; len(up) != 1 || !up[0] {
		t.Fatalf("round %d uploads from the rejoined device, all-dense: %v; want one, dense", rejoin, up)
	}
	if down := tap.downDense[rejoin]; len(down) != 1 || !down[0] {
		t.Fatalf("round %d downlinks to the rejoined device, all-dense: %v; want one, dense", rejoin, down)
	}
	// And the exchange went sparse again afterwards.
	sparse := false
	for r := rejoin + 1; r < cfg.Phase2Rounds; r++ {
		for _, dense := range append(tap.upDense[r], tap.downDense[r]...) {
			sparse = sparse || !dense
		}
	}
	if rejoin+1 < cfg.Phase2Rounds && !sparse {
		t.Fatalf("no sparse record after the re-seed (uploads %v, downlinks %v)", tap.upDense, tap.downDense)
	}
}
