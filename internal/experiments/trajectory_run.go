package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"acme/internal/checkpoint"
	"acme/internal/core"
	"acme/internal/transport"
)

// runTimeout bounds one pipeline run (the 2000-device fleet is the
// slowest, at well under a minute).
const runTimeout = 20 * time.Minute

// tinyStack shrinks MicroConfig's training stack to the adversarial
// micro one: small enough that a 150-run matrix regenerates in a
// minute, detection and restore being properties of the exchange, not
// of model quality.
func tinyStack(cfg *core.Config) {
	micro := MicroConfig()
	cfg.Backbone, cfg.Dataset, cfg.NumClasses = micro.Backbone, micro.Dataset, micro.NumClasses
	cfg.Widths, cfg.Depths = micro.Widths, micro.Depths
	cfg.Distill, cfg.Search = micro.Distill, micro.Search
	cfg.Search.ChildBatches = 2
	cfg.Search.RewardProbe = 20
	cfg.Search.Hidden = 12
	cfg.ClassesPerDevice = 6
	cfg.PublicSamples = 120
	cfg.PretrainEpochs = 1
	cfg.CloudProbe = 40
	cfg.DiscardPerRound = 2
	cfg.LocalEpochs = 1
	cfg.ProbeSize = 8
}

// config turns the cell into the core.Config of its trial-th run.
func (c cell) config(trial int) (core.Config, error) {
	cfg := core.DefaultConfig()
	if c.Tiny {
		tinyStack(&cfg)
	}
	clusters := c.Edges
	if c.FleetClusters > 0 {
		clusters = c.FleetClusters
	}
	cfg.EdgeServers = c.Edges
	cfg.Fleet.Spec.Clusters = clusters
	cfg.Fleet.Spec.DevicesPerCluster = c.Edges * c.DevicesPerEdge / clusters
	cfg.SamplesPerDevice = c.Samples
	cfg.Phase2Rounds = c.Rounds
	cfg.Seed = c.Seed + int64(trial)
	if c.DataGroups > 0 {
		cfg.DataGroups, cfg.Fleet.SharedShards = c.DataGroups, true
	}

	quant, err := core.ParseQuantMode(c.Quant)
	if err != nil {
		return cfg, err
	}
	cfg.Wire.Quantization = quant
	cfg.Wire.DeltaImportance = c.Delta
	cfg.Wire.Entropy = c.Entropy
	cfg.ImportanceRefreshPeriod = c.Refresh
	cfg.ConvergenceEpsilon = c.Converge
	cfg.Wire.TopKFraction = c.TopK

	cfg.Fleet.SampleFrac = c.SampleFrac
	cfg.Straggler.Quorum = c.Quorum
	cfg.Straggler.Deadline = time.Duration(c.CutoffMS) * time.Millisecond

	cfg.Chaos = c.Link
	cfg.Fleet.Detect = c.Detect
	if c.Strategy != "" {
		cfg.Fleet.Byzantine = core.ByzantineOptions{Strategy: c.Strategy, Count: byzantineDevices, Prob: c.LieProb}
	}
	cfg.Straggler.SlowDeviceDelay = time.Duration(c.StraggleMS) * time.Millisecond
	return cfg, nil
}

// outcome is what one run of the pipeline leaves behind: its result
// (over TCP, the edges' reports), the traffic counters of every node
// (one set in memory, one per role over TCP) and the wall it took.
type outcome struct {
	res   *core.Result
	stats []*transport.Stats
	wall  time.Duration
}

// run executes the cell's trial-th run on its transport, checkpointing
// into ckptDir when that is set.
func (c cell) run(ctx context.Context, trial int, ckptDir string) (outcome, error) {
	cfg, err := c.config(trial)
	if err != nil {
		return outcome{}, err
	}
	cfg.Checkpoint.Path = ckptDir
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	start := time.Now()
	var out outcome
	if c.Transport == "tcp" {
		out, err = runTCP(ctx, cfg)
	} else {
		out, err = runMemory(ctx, cfg)
	}
	out.wall = time.Since(start)
	return out, err
}

// runMemory is the plain run: one System, every role a goroutine on the
// in-memory network.
func runMemory(ctx context.Context, cfg core.Config) (outcome, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return outcome{}, err
	}
	res, err := sys.Run(ctx)
	// The network is this run's own, as in acme.Run: closing it releases
	// the frames still parked in inboxes nobody reads, once a chaos
	// network has drained its delayed deliveries.
	sys.Net.(transport.Transport).Close()
	if err != nil {
		return outcome{}, err
	}
	return outcome{res: res, stats: []*transport.Stats{res.Stats}}, nil
}

// runTCP runs the pipeline over real loopback sockets: every role gets
// its own listener and System instance, exactly as separate acmenode
// processes would.
func runTCP(ctx context.Context, cfg core.Config) (outcome, error) {
	probe, err := core.NewSystem(cfg)
	if err != nil {
		return outcome{}, err
	}
	roles := probe.RoleNames()
	nets := make(map[string]*transport.TCP, len(roles))
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()
	peers := make(map[string]string, len(roles))
	for _, role := range roles {
		n, err := transport.NewTCP(role, "127.0.0.1:0", nil)
		if err != nil {
			return outcome{}, err
		}
		nets[role], peers[role] = n, n.Addr()
	}
	systems := make(map[string]*core.System, len(roles))
	for _, role := range roles {
		nets[role].SetPeers(peers)
		if systems[role], err = core.NewSystemWithNetwork(cfg, nets[role]); err != nil {
			return outcome{}, err
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res, err := startRoles(ctx, cancel, roles, func(role string) *core.System { return systems[role] }, "", nil).wait()
	if err != nil {
		return outcome{}, err
	}
	out := outcome{res: res}
	for _, n := range nets {
		out.stats = append(out.stats, n.Stats())
	}
	return out, nil
}

// roleRun is a pipeline whose roles each run on their own goroutine.
type roleRun struct {
	wg      sync.WaitGroup
	exited  map[string]chan struct{} // closed when that role's goroutine returns
	mu      sync.Mutex
	reports []core.DeviceReport
	err     error
}

// startRoles launches every role on the System sysOf names for it. The
// first role to fail cancels the rest — except victim, which runs under
// victimCtx and is expected to die with it.
func startRoles(ctx context.Context, cancel context.CancelFunc, roles []string,
	sysOf func(role string) *core.System, victim string, victimCtx context.Context) *roleRun {
	r := &roleRun{exited: make(map[string]chan struct{}, len(roles)), reports: []core.DeviceReport{}}
	for _, role := range roles {
		runCtx, exited := ctx, make(chan struct{})
		if role == victim {
			runCtx = victimCtx
		}
		r.exited[role] = exited
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer close(exited)
			res, err := sysOf(role).RunRole(runCtx, role)
			if err != nil && role != victim {
				r.mu.Lock()
				defer r.mu.Unlock()
				if r.err == nil {
					r.err = fmt.Errorf("%s: %w", role, err)
				}
				cancel()
				return
			}
			r.add(res)
		}()
	}
	return r
}

// add merges an edge role's reports into the run's.
func (r *roleRun) add(res *core.Result) {
	if res == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reports = append(r.reports, res.Reports...)
}

// wait returns, once every role has returned, the edges' reports merged
// in DeviceID order.
func (r *roleRun) wait() (*core.Result, error) {
	r.wg.Wait()
	if r.err != nil {
		return nil, r.err
	}
	sort.Slice(r.reports, func(i, j int) bool { return r.reports[i].DeviceID < r.reports[j].DeviceID })
	return &core.Result{Reports: r.reports}, nil
}

// bulkKinds are the kinds the entropy layer targets (core's eligibility
// set).
var bulkKinds = []transport.Kind{
	transport.KindBackbone, transport.KindHeader,
	transport.KindImportanceSet, transport.KindPersonalizedSet,
	transport.KindRawData, transport.KindProvision,
	transport.KindImportanceDelta, transport.KindImportanceDownDelta,
}

// measureRounds reads the edges' round trace and the devices' compute
// trace. Over TCP the roles are separate Systems and the merged
// result carries neither: there is nothing to read.
func measureRounds(c cell, res *core.Result) *roundMetrics {
	if len(res.Phase2Rounds) == 0 {
		return nil
	}
	m := &roundMetrics{
		ImportanceBytesByRound: make([]int64, c.Rounds),
		DownlinkBytesByRound:   make([]int64, c.Rounds),
		DeltaMessagesByRound:   make([]int, c.Rounds),
		DownDeltaMsgsByRound:   make([]int, c.Rounds),
		EdgeAggregateMSByRound: make([]float64, c.Rounds),
		DownlinkMSByRound:      make([]float64, c.Rounds),
		GatherWallMSByRound:    make([]float64, c.Rounds),
	}
	var gatherMS float64
	var sampled int
	for _, rs := range res.Phase2Rounds {
		m.ImportanceBytesByRound[rs.Round] += rs.UploadBytes
		m.DownlinkBytesByRound[rs.Round] += rs.DownlinkBytes
		m.DeltaMessagesByRound[rs.Round] += rs.DeltaMessages
		m.DownDeltaMsgsByRound[rs.Round] += rs.DownDeltaMessages
		m.EdgeAggregateMSByRound[rs.Round] += float64(rs.AggregateNS) / 1e6
		m.DownlinkMSByRound[rs.Round] += float64(rs.DownlinkNS) / 1e6
		m.GatherWallMSByRound[rs.Round] += float64(rs.GatherWallNS) / 1e6
		gatherMS += float64(rs.GatherWallNS) / 1e6
		m.CutoffTotal += rs.CutoffCount
		m.StaleTotal += rs.StaleMessages
		if rs.SampledCount > 0 {
			sampled += rs.SampledCount
		} else {
			sampled += c.DevicesPerEdge
		}
	}
	m.GatherWallMSPerRound = gatherMS / float64(len(res.Phase2Rounds))
	m.SampledPerRound = float64(sampled) / float64(c.Rounds)
	if n := len(res.DeviceRounds); n > 0 {
		var critNS, preNS int64
		for _, dr := range res.DeviceRounds {
			critNS += dr.ImportanceNS
			preNS += dr.PrefoldNS
		}
		m.DeviceImportanceMSPerRound = float64(critNS) / 1e6 / float64(n)
		m.DevicePrefoldMSPerRound = float64(preNS) / 1e6 / float64(n)
	}
	return m
}

// measure turns one run's result and traffic counters into the flat
// metric keys of the file.
func measure(c cell, out outcome) (*wireMetrics, *roundMetrics) {
	m := &wireMetrics{KindBytesTotal: map[string]int64{}, KindBinaryBytes: map[string]int64{}}
	// What every node's socket sent, per kind.
	for _, st := range out.stats {
		binByKind := st.BinaryBytesByKind()
		for k, v := range st.BytesByKind() {
			m.KindBytesTotal[k.String()] += v
			m.KindBinaryBytes[k.String()] += binByKind[k]
		}
	}
	kind := func(k transport.Kind) int64 { return m.KindBytesTotal[k.String()] }
	m.UploadBytes = kind(transport.KindStats) + kind(transport.KindRawData) +
		kind(transport.KindImportanceSet) + kind(transport.KindImportanceDelta)

	// The loop totals are what the edges received and sent back, round
	// by round (a cut-off straggler's late upload is sent but never
	// counted); without a round trace, what the sockets sent.
	rounds := measureRounds(c, out.res)
	if rounds != nil {
		for r := range rounds.ImportanceBytesByRound {
			m.ImportanceBytesTotal += rounds.ImportanceBytesByRound[r]
			m.DownlinkBytesTotal += rounds.DownlinkBytesByRound[r]
		}
	} else {
		m.ImportanceBytesTotal = kind(transport.KindImportanceSet) + kind(transport.KindImportanceDelta)
		m.DownlinkBytesTotal = kind(transport.KindPersonalizedSet) + kind(transport.KindImportanceDownDelta)
	}
	m.UplinkBytesPerRound = m.ImportanceBytesTotal / int64(c.Rounds)

	if c.Entropy {
		m.EntropyRatioByKind = make(map[string]float64)
		var bulkBin, bulkWire int64
		for _, k := range bulkKinds {
			if w, b := kind(k), m.KindBinaryBytes[k.String()]; w > 0 {
				bulkWire += w
				bulkBin += b
				m.EntropyRatioByKind[k.String()] = float64(b) / float64(w)
			}
		}
		m.BulkEntropyRatio = float64(bulkBin) / float64(bulkWire)
	}
	return m, rounds
}

// tally folds adversarial trials into per-device-trial counts.
type tally struct {
	byzTrials, byzDetected, byzEvicted int
	honTrials, honFlagged, honReported int
	roundsToDetect                     []float64
	accSum                             float64
	runs                               int
}

// fold adds one trial over devices devices, of which IDs below
// byzantine lied.
func (a *tally) fold(res *core.Result, byzantine, devices int) {
	firstFlag := map[int]int{}
	evicted := map[int]bool{}
	for _, rs := range res.Phase2Rounds {
		for _, id := range rs.Suspects {
			if _, ok := firstFlag[id]; !ok {
				firstFlag[id] = rs.Round
			}
		}
		for _, id := range rs.EvictedDevices {
			evicted[id] = true
		}
	}
	reported := map[int]bool{}
	for _, rep := range res.Reports {
		reported[rep.DeviceID] = true
	}
	for id := 0; id < devices; id++ {
		r, flagged := firstFlag[id]
		if id < byzantine {
			a.byzTrials++
			if flagged {
				a.byzDetected++
				a.roundsToDetect = append(a.roundsToDetect, float64(r))
			}
			if evicted[id] {
				a.byzEvicted++
			}
		} else {
			a.honTrials++
			if flagged {
				a.honFlagged++
			}
			if reported[id] {
				a.honReported++
			}
		}
	}
	a.accSum += res.MeanAccuracyFinal()
	a.runs++
}

// rates turns the counts into the cell's metrics and mean accuracy.
func (a *tally) rates() (*detectMetrics, float64) {
	m := &detectMetrics{MeanRoundsToDetect: -1}
	if a.byzTrials > 0 {
		m.DetectionTPR = float64(a.byzDetected) / float64(a.byzTrials)
		m.EvictionRate = float64(a.byzEvicted) / float64(a.byzTrials)
	}
	if a.honTrials > 0 {
		m.DetectionFPR = float64(a.honFlagged) / float64(a.honTrials)
		m.HonestReportRate = float64(a.honReported) / float64(a.honTrials)
	}
	if len(a.roundsToDetect) > 0 {
		var s float64
		for _, r := range a.roundsToDetect {
			s += r
		}
		m.MeanRoundsToDetect = s / float64(len(a.roundsToDetect))
	}
	var acc float64
	if a.runs > 0 {
		acc = a.accSum / float64(a.runs)
	}
	return m, acc
}

// runDetection runs a matrix cell's seeded trials.
func runDetection(ctx context.Context, c cell) (*detectMetrics, float64, error) {
	byzantine := 0
	if c.Strategy != "" {
		byzantine = byzantineDevices
	}
	var acc tally
	for trial := 0; trial < c.Trials; trial++ {
		out, err := c.run(ctx, trial, "")
		if err != nil {
			return nil, 0, fmt.Errorf("trial %d: %w", trial, err)
		}
		acc.fold(out.res, byzantine, c.Edges*c.DevicesPerEdge)
	}
	m, meanAcc := acc.rates()
	return m, meanAcc, nil
}

// runTax runs paired (plain, checkpointed) trials and reports the
// median relative wall overhead of arming checkpoints, clamped at zero
// (the estimate is a tax, never a speedup — negative pair noise is
// measurement jitter).
func runTax(ctx context.Context, c cell) (*taxMetrics, error) {
	m := &taxMetrics{}
	var fracs []float64
	for trial := 0; trial < c.Trials; trial++ {
		plain, err := c.run(ctx, trial, "")
		if err != nil {
			return nil, fmt.Errorf("plain trial %d: %w", trial, err)
		}
		dir, err := os.MkdirTemp("", "acme-ckpt-tax-")
		if err != nil {
			return nil, err
		}
		ckpt, err := c.run(ctx, trial, dir)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("checkpointed trial %d: %w", trial, err)
		}
		m.PlainWallSeconds = append(m.PlainWallSeconds, plain.wall.Seconds())
		m.CkptWallSeconds = append(m.CkptWallSeconds, ckpt.wall.Seconds())
		fracs = append(fracs, (ckpt.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds())
	}
	sort.Float64s(fracs)
	med := fracs[len(fracs)/2]
	if len(fracs)%2 == 0 {
		med = (fracs[len(fracs)/2-1] + fracs[len(fracs)/2]) / 2
	}
	m.CkptOverheadFrac = max(med, 0)
	return m, nil
}

// awaitSnapshot polls a role's checkpoint file until it holds a
// snapshot at minRound or later: an edge's, or with device set a
// device's. The file is written atomically, so every read observes a
// complete snapshot.
func awaitSnapshot(ctx context.Context, path string, device bool, minRound int) (int, error) {
	for ctx.Err() == nil {
		var round int
		var err error
		if device {
			var snap core.DeviceSnapshot
			err, round = checkpoint.ReadFile(path, &snap), snap.Round
		} else {
			var snap core.EdgeSnapshot
			err, round = checkpoint.ReadFile(path, &snap), snap.Round
		}
		if err == nil && round >= minRound {
			return round, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, fmt.Errorf("%s never reached round %d: %w", filepath.Base(path), minRound, ctx.Err())
}

// runRestore kills a role mid-loop and brings it back. The straggler's
// edge is restored from its durable snapshot, and the finished run's
// reports must be bitwise those of the same seeded run left
// uninterrupted. The straggler itself (KillDevice) resumes from its
// snapshot or rejoins cold (Rejoin); the edge cuts it off meanwhile, so
// the run must only complete: every device reports, and every saved
// model loads with the accuracy its device reported.
func runRestore(ctx context.Context, c cell) (*restoreMetrics, float64, error) {
	var base outcome
	if !c.KillDevice {
		var err error
		if base, err = c.run(ctx, 0, ""); err != nil {
			return nil, 0, fmt.Errorf("uninterrupted baseline: %w", err)
		}
	}
	dir, err := os.MkdirTemp("", "acme-restore-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	cfg, err := c.config(0)
	if err != nil {
		return nil, 0, err
	}
	cfg.Checkpoint.Path = dir
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, 0, err
	}
	slowID, slowEdge := sys.Straggler()
	victim := fmt.Sprintf("edge-%d", slowEdge)
	if c.KillDevice {
		victim = fmt.Sprintf("device-%d", slowID)
	}

	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	victimCtx, kill := context.WithCancel(ctx)
	defer kill()
	roles := startRoles(ctx, cancel, sys.RoleNames(), func(string) *core.System { return sys }, victim, victimCtx)

	// Kill the role once its snapshot proves the loop is mid-flight,
	// wait for the goroutine to die (its snapshot writer must release
	// the file before the restored instance opens it), then restore.
	killRound, err := awaitSnapshot(ctx, sys.CheckpointFile(victim), c.KillDevice, c.KillMinRound)
	if err == nil {
		kill()
		<-roles.exited[victim]
		var res *core.Result
		if c.Rejoin {
			err = sys.RejoinRole(ctx, victim)
		} else {
			res, err = sys.ResumeRole(ctx, victim)
		}
		if err != nil {
			err = fmt.Errorf("restore %s: %w", victim, err)
		}
		roles.add(res)
	}
	if err != nil {
		cancel()
	}
	res, waitErr := roles.wait()
	if err := errors.Join(err, waitErr); err != nil {
		return nil, 0, err
	}
	m := &restoreMetrics{Victim: victim, KillRound: killRound}
	if c.KillDevice {
		if err := sys.CheckSavedModels(res.Reports); err != nil {
			return nil, 0, err
		}
		m.RestoreCompleteTPR = 1
	} else {
		if !reflect.DeepEqual(res.Reports, base.res.Reports) {
			return nil, 0, fmt.Errorf("kill-and-restore run diverged from the uninterrupted run:\ngot  %+v\nwant %+v",
				res.Reports, base.res.Reports)
		}
		m.RestoreEqualTPR = 1
	}
	return m, res.MeanAccuracyFinal(), nil
}
