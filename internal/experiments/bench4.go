package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"acme/internal/core"
	"acme/internal/transport"
)

// Bench4 traces the now-symmetric Phase 2-2 exchange on the default
// acmesim scenario (seed 1): importance uplink AND personalized-set
// downlink bytes, per-round on the in-memory transport and as totals
// over real loopback TCP sockets, for the dense lossless baseline
// against the delta+mixed ladder — plus the device-side compute cut of
// incremental importance accumulation. The result is written as
// machine-readable JSON (BENCH_4.json) extending the BENCH_3.json
// trajectory, and returned as a rendered table.

// bench4Scenario pins the measured configuration.
type bench4Scenario struct {
	Edges          int   `json:"edges"`
	DevicesPerEdge int   `json:"devices_per_edge"`
	Samples        int   `json:"samples_per_device"`
	Rounds         int   `json:"rounds"`
	Seed           int64 `json:"seed"`
}

// bench4Config is one measured variant of the exchange.
type bench4Config struct {
	Name      string `json:"name"`
	Transport string `json:"transport"` // "memory" or "tcp"
	Quant     string `json:"quant"`
	Delta     bool   `json:"delta"`
	Refresh   int    `json:"refresh"`

	// Uplink: importance bytes the edges received (wire bytes incl.
	// header estimate). Named identically to BENCH_3.json so
	// bench-compare can diff the trajectories.
	ImportanceBytesByRound []int64 `json:"importance_bytes_by_round,omitempty"`
	ImportanceBytesTotal   int64   `json:"importance_bytes_total"`
	// Downlink: personalized-set bytes the edges sent back.
	DownlinkBytesByRound []int64 `json:"downlink_bytes_by_round,omitempty"`
	DownlinkBytesTotal   int64   `json:"downlink_bytes_total"`
	DownDeltaMsgsByRound []int   `json:"down_delta_msgs_by_round,omitempty"`
	// EdgeAggregateMSByRound sums the edges' decode+fold+finalize busy
	// time per round; DownlinkMSByRound the streamed downlink encode+
	// send time.
	EdgeAggregateMSByRound []float64 `json:"edge_aggregate_ms_by_round,omitempty"`
	DownlinkMSByRound      []float64 `json:"downlink_ms_by_round,omitempty"`
	// Device importance compute, mean ms per executed device round:
	// critical path vs folding overlapped with the in-flight upload.
	DeviceImportanceMSPerRound float64 `json:"device_importance_ms_per_round,omitempty"`
	DevicePrefoldMSPerRound    float64 `json:"device_prefold_ms_per_round,omitempty"`
	UploadBytes                int64   `json:"upload_bytes"`
	MeanAccuracyFinal          float64 `json:"mean_accuracy_final"`
	WallSeconds                float64 `json:"wall_seconds"`
}

// bench4Report is the BENCH_4.json document.
type bench4Report struct {
	Experiment string         `json:"experiment"`
	Scenario   bench4Scenario `json:"scenario"`
	Configs    []bench4Config `json:"configs"`
	// ReductionDownlinkDeltaMixed is the memory-mode downlink bytes of
	// the dense lossless baseline divided by the delta+mixed variant —
	// the headline ≥2.5× acceptance number of the symmetric exchange.
	ReductionDownlinkDeltaMixed float64 `json:"reduction_downlink_delta_mixed_vs_dense_lossless"`
	// ReductionUplinkDeltaMixed mirrors BENCH_3.json's headline for
	// continuity of the trajectory.
	ReductionUplinkDeltaMixed float64 `json:"reduction_uplink_delta_mixed_vs_dense_lossless"`
	// DeviceComputeSpeedupIncremental is the mean critical-path device
	// importance ms/round of the full-recompute baseline divided by the
	// incremental (refresh-period) variant — the ≥2× acceptance number.
	DeviceComputeSpeedupIncremental float64 `json:"device_compute_speedup_incremental"`
}

func bench4BaseConfig(scen bench4Scenario) core.Config {
	cfg := core.DefaultConfig()
	cfg.EdgeServers = scen.Edges
	cfg.Fleet.Spec.Clusters = scen.Edges
	cfg.Fleet.Spec.DevicesPerCluster = scen.DevicesPerEdge
	cfg.SamplesPerDevice = scen.Samples
	cfg.Phase2Rounds = scen.Rounds
	cfg.Seed = scen.Seed
	return cfg
}

// runBench4Memory executes one variant on the in-memory network and
// fills the per-round traces.
func runBench4Memory(scen bench4Scenario, bc *bench4Config, cfg core.Config) error {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	res, err := sys.Run(ctx)
	cancel()
	if err != nil {
		return err
	}
	bc.WallSeconds = time.Since(start).Seconds()
	bc.MeanAccuracyFinal = res.MeanAccuracyFinal()
	bc.UploadBytes = res.UploadBytes

	rounds := scen.Rounds
	bc.ImportanceBytesByRound = make([]int64, rounds)
	bc.DownlinkBytesByRound = make([]int64, rounds)
	bc.DownDeltaMsgsByRound = make([]int, rounds)
	bc.EdgeAggregateMSByRound = make([]float64, rounds)
	bc.DownlinkMSByRound = make([]float64, rounds)
	for _, rs := range res.Phase2Rounds {
		if rs.Round < 0 || rs.Round >= rounds {
			continue
		}
		bc.ImportanceBytesByRound[rs.Round] += rs.UploadBytes
		bc.ImportanceBytesTotal += rs.UploadBytes
		bc.DownlinkBytesByRound[rs.Round] += rs.DownlinkBytes
		bc.DownlinkBytesTotal += rs.DownlinkBytes
		bc.DownDeltaMsgsByRound[rs.Round] += rs.DownDeltaMessages
		bc.EdgeAggregateMSByRound[rs.Round] += float64(rs.AggregateNS) / 1e6
		bc.DownlinkMSByRound[rs.Round] += float64(rs.DownlinkNS) / 1e6
	}
	if n := len(res.DeviceRounds); n > 0 {
		var critNS, preNS int64
		for _, dr := range res.DeviceRounds {
			critNS += dr.ImportanceNS
			preNS += dr.PrefoldNS
		}
		bc.DeviceImportanceMSPerRound = float64(critNS) / 1e6 / float64(n)
		bc.DevicePrefoldMSPerRound = float64(preNS) / 1e6 / float64(n)
	}
	return nil
}

// runBench4TCP executes one variant over real loopback TCP sockets —
// every role gets its own listener and System instance, exactly as
// separate acmenode processes would — and fills the wire-byte totals
// from the per-role socket stats.
func runBench4TCP(bc *bench4Config, cfg core.Config) error {
	probe, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	roles := probe.RoleNames()

	nets := make(map[string]*transport.TCP, len(roles))
	peers := make(map[string]string, len(roles))
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()
	for _, role := range roles {
		n, err := transport.NewTCP(role, "127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		nets[role] = n
		peers[role] = n.Addr()
	}
	for _, role := range roles {
		nets[role].SetPeers(peers)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	start := time.Now()
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		collected *core.Result
		firstErr  error
	)
	for _, role := range roles {
		sys, err := core.NewSystemWithNetwork(cfg, nets[role])
		if err != nil {
			return err
		}
		role := role
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sys.RunRole(ctx, role)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", role, err)
				cancel()
				return
			}
			if res != nil {
				collected = res
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if collected == nil {
		return fmt.Errorf("bench4 tcp: no collector result")
	}
	bc.WallSeconds = time.Since(start).Seconds()
	bc.MeanAccuracyFinal = collected.MeanAccuracyFinal()

	// Cluster-wide totals: sum what every role's socket sent, per kind.
	for _, n := range nets {
		st := n.Stats()
		up, _ := st.BytesForKinds(transport.KindImportanceSet, transport.KindImportanceDelta)
		down, _ := st.BytesForKinds(transport.KindPersonalizedSet, transport.KindImportanceDownDelta)
		bc.ImportanceBytesTotal += up
		bc.DownlinkBytesTotal += down
		byKind := st.BytesByKind()
		bc.UploadBytes += byKind[transport.KindStats] + byKind[transport.KindRawData] +
			byKind[transport.KindImportanceSet] + byKind[transport.KindImportanceDelta]
	}
	return nil
}

// Bench4JSON runs the symmetric-exchange trajectory and writes it to
// path ("" skips the file and only renders the table).
func Bench4JSON(path string) (*Table, error) {
	const rounds = 4
	scen := bench4Scenario{Edges: 2, DevicesPerEdge: 3, Samples: 160, Rounds: rounds, Seed: 1}
	variants := []struct {
		name    string
		tcp     bool
		quant   core.QuantMode
		delta   bool
		refresh int
	}{
		{"dense-lossless", false, core.QuantLossless, false, 0},
		{"delta-mixed", false, core.QuantMixed, true, 0},
		{"delta-mixed-incremental", false, core.QuantMixed, true, 4},
		{"tcp-dense-lossless", true, core.QuantLossless, false, 0},
		{"tcp-delta-mixed", true, core.QuantMixed, true, 0},
	}

	rep := bench4Report{Experiment: "bench4-symmetric-exchange", Scenario: scen}
	for _, v := range variants {
		cfg := bench4BaseConfig(scen)
		cfg.Wire.Quantization = v.quant
		cfg.Wire.DeltaImportance = v.delta
		cfg.ImportanceRefreshPeriod = v.refresh

		bc := bench4Config{
			Name:    v.name,
			Quant:   v.quant.String(),
			Delta:   v.delta,
			Refresh: v.refresh,
		}
		var err error
		if v.tcp {
			bc.Transport = "tcp"
			err = runBench4TCP(&bc, cfg)
		} else {
			bc.Transport = "memory"
			err = runBench4Memory(scen, &bc, cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("bench4 %s: %w", v.name, err)
		}
		rep.Configs = append(rep.Configs, bc)
	}

	byName := make(map[string]*bench4Config, len(rep.Configs))
	for i := range rep.Configs {
		byName[rep.Configs[i].Name] = &rep.Configs[i]
	}
	base, best := byName["dense-lossless"], byName["delta-mixed"]
	if best.DownlinkBytesTotal > 0 {
		rep.ReductionDownlinkDeltaMixed = float64(base.DownlinkBytesTotal) / float64(best.DownlinkBytesTotal)
	}
	if best.ImportanceBytesTotal > 0 {
		rep.ReductionUplinkDeltaMixed = float64(base.ImportanceBytesTotal) / float64(best.ImportanceBytesTotal)
	}
	if inc := byName["delta-mixed-incremental"]; inc.DeviceImportanceMSPerRound > 0 {
		rep.DeviceComputeSpeedupIncremental = base.DeviceImportanceMSPerRound / inc.DeviceImportanceMSPerRound
	}

	if path != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("bench4: write %s: %w", path, err)
		}
	}

	t := &Table{
		ID:    "bench4",
		Title: "Phase 2-2 symmetric exchange: uplink + downlink bytes and device compute",
		Columns: []string{"config", "transport", "uplink B", "downlink B", "dev imp ms/round",
			"prefold ms/round", "mean acc"},
	}
	for _, c := range rep.Configs {
		t.AddRow(c.Name, c.Transport,
			fmt.Sprintf("%d", c.ImportanceBytesTotal),
			fmt.Sprintf("%d", c.DownlinkBytesTotal),
			fmt.Sprintf("%.2f", c.DeviceImportanceMSPerRound),
			fmt.Sprintf("%.2f", c.DevicePrefoldMSPerRound),
			fmt.Sprintf("%.3f", c.MeanAccuracyFinal))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("delta+mixed cuts downlink %.2f× and uplink %.2f× vs dense lossless (memory mode)",
			rep.ReductionDownlinkDeltaMixed, rep.ReductionUplinkDeltaMixed),
		fmt.Sprintf("incremental importance cuts critical-path device compute %.2f×/round vs full recompute",
			rep.DeviceComputeSpeedupIncremental))
	if path != "" {
		t.Notes = append(t.Notes, "trajectory written to "+path)
	}
	return t, nil
}
