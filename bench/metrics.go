package main

import (
	"bytes"
	"encoding/json"
	"sort"
)

// metricDef declares one metric the benchmark prints. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change is a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Why    string
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string
	Why  string
}

const (
	wDense   = "customize-dense"
	wShaped  = "customize-shaped-tcp"
	wFleet   = "fleet-sampled"
	wReplay  = "exchange-replay"
	runSecs  = 20
	benchDir = "bench"
)

var workloads = []workloadDef{
	{wDense, "the pipeline as shipped, 2 edges x 4 devices x 10 rounds, dense lossless wire in memory: tensor/nn/nas/importance do >95% of the work, so a kernel win shows here and a wire win must not"},
	{wShaped, "same topology and rounds over delta+mixed-quant+entropy frames on loopback TCP sockets: same compute, wire and transport used the other way round"},
	{wFleet, "4 edges x 100 devices at 10% participation for 6 rounds: 400 device goroutines, header fan-out, registry, sampler and memory footprint only matter here"},
	{wReplay, "no training: one edge serves 64 devices for 68 rounds (64 dense, 4 delta+entropy: half the time each) through wire, transport, session and combiner only, so a kernel change must leave it flat"},
}

// endToEnd is what an operator customizing models for a fleet pays:
// time until every device holds its model, bytes moved per device, the
// edge's round service time, and the host's CPU and memory, at
// unchanged accuracy. Failures travel beside the metrics as the
// failed/attempted pair of the result line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "build time before the timed region: NewSystem, plus listeners and peer tables on TCP; payload generation for exchange-replay; fastest of the batches of 15 builds taken before, between and after the runs"},
	{"run_wall_s", "s", "lower", 0.25, "one full run, first role launched to last device report collected; median over repeats"},
	{"run_cpu_s", "s", "lower", 0.25, "process user+sys CPU per run (getrusage delta); the energy proxy"},
	{"wire_bytes_per_device", "B", "lower", 0.001, "all bytes sent by all roles / devices; exact"},
	{"loop_bytes_per_device_round", "B", "lower", 0.001, "importance uplink + downlink bytes / invited device-rounds; exact"},
	{"accuracy_final", "fraction", "higher", 0.005, "mean device accuracy after refinement; exact (exchange-replay: share of checked rounds whose downlinks equal aggregate.Combine bit for bit)"},
	{"allocs_per_run", "count", "lower", 0.01, "heap objects allocated per run (MemStats.Mallocs delta)"},
	{"alloc_mb_per_run", "MB", "lower", 0.01, "heap bytes allocated per run (MemStats.TotalAlloc delta)"},
	{"peak_rss_mb", "MB", "lower", 0.25, "the workload process's ru_maxrss"},
}

// perLayer lists each layer's metrics, timed from bench/ around the
// layer's exported calls at the shapes the workloads issue. The core,
// transport-count and replay rows come from the workload's own run.
var perLayer = []metricDef{
	{Name: "tensor.matmul_small_ns", Unit: "ns", Better: "lower", Why: "MatMulInto 9x32 by 32x64, the shape Block.Forward issues"},
	{Name: "tensor.matmul_transA_small_ns", Unit: "ns", Better: "lower", Why: "MatMulTransAInto 9x32 by 9x64, the weight-gradient shape"},
	{Name: "tensor.matmul_transB_small_ns", Unit: "ns", Better: "lower", Why: "MatMulTransBInto 9x64 by 32x64, the input-gradient shape"},
	{Name: "tensor.matmul_large_ns", Unit: "ns", Better: "lower", Why: "MatMulInto 256^3, the parallel path no default-size model reaches"},
	{Name: "tensor.allocs_per_matmul", Unit: "count", Better: "lower", Why: "heap objects per small MatMulInto"},

	{Name: "nn.backbone_fwd_us", Unit: "us", Better: "lower", Why: "Backbone.Forward of one sample"},
	{Name: "nn.backbone_fwdbwd_us", Unit: "us", Better: "lower", Why: "BatchGradients of one sample through backbone + linear head"},
	{Name: "nn.train_epoch_ms", Unit: "ms", Better: "lower", Why: "TrainEpoch over 400 public samples, batch 16"},
	{Name: "nn.evaluate_ms", Unit: "ms", Better: "lower", Why: "Evaluate on a 128-sample probe"},
	{Name: "nn.train_epoch_allocs", Unit: "count", Better: "lower", Why: "heap objects per TrainEpoch"},

	{Name: "prune.ensure_importance_ms", Unit: "ms", Better: "lower", Why: "Generator.EnsureImportance over 256 public samples"},
	{Name: "prune.generate_ms", Unit: "ms", Better: "lower", Why: "Generator.Generate: prune and distill one (w, d) student"},

	{Name: "pareto.sweep_ms", Unit: "ms", Better: "lower", Why: "SweepCandidates over the 4x4 lattice with the masked-clone evaluation the cloud uses"},
	{Name: "pareto.build_select_us", Unit: "us", Better: "lower", Why: "Build the front grid over 16 candidates and Select under a size cap"},

	{Name: "nas.search_ms", Unit: "ms", Better: "lower", Why: "NewSearcher + Search + BuildFinal at the default search config"},
	{Name: "nas.header_fwdbwd_us", Unit: "us", Better: "lower", Why: "BatchGradients of one sample through the header model"},
	{Name: "nas.train_local_ms", Unit: "ms", Better: "lower", Why: "HeaderModel.TrainLocal, 2 epochs over 128 samples"},
	{Name: "nas.apply_importance_us", Unit: "us", Better: "lower", Why: "HeaderModel.ApplyImportance discarding 4 units"},
	{Name: "nas.train_local_allocs", Unit: "count", Better: "lower", Why: "heap objects per TrainLocal"},

	{Name: "importance.fold_batch_ms", Unit: "ms", Better: "lower", Why: "Accumulator.FoldBatches per 16-sample minibatch"},
	{Name: "importance.average_us", Unit: "us", Better: "lower", Why: "Accumulator.Average"},
	{Name: "importance.fold_allocs_per_batch", Unit: "count", Better: "lower", Why: "heap objects per folded minibatch"},

	{Name: "wasserstein.sliced_us", Unit: "us", Better: "lower", Why: "Sliced distance of two 32x16 probe feature sets, 24 projections"},
	{Name: "aggregate.similarity_n4_ms", Unit: "ms", Better: "lower", Why: "MatrixFor a 4-device cluster"},
	{Name: "aggregate.similarity_n100_ms", Unit: "ms", Better: "lower", Why: "MatrixFor a 100-device cluster"},
	{Name: "aggregate.add_us", Unit: "us", Better: "lower", Why: "Combiner.Add of one upload into a 64-device cluster"},
	{Name: "aggregate.result_us", Unit: "us", Better: "lower", Why: "Combiner.Result of a 64-device round"},
	{Name: "aggregate.allocs_per_round", Unit: "count", Better: "lower", Why: "heap objects per 64-device combine round"},

	{Name: "wire.encode_dense_mbps", Unit: "MB/s", Better: "higher", Why: "Encode of a dense importance upload"},
	{Name: "wire.decode_dense_mbps", Unit: "MB/s", Better: "higher", Why: "DecodeArena of the same frame, aliasing"},
	{Name: "wire.decode_dense_allocs", Unit: "count", Better: "lower", Why: "heap objects per aliased decode; must stay 0"},
	{Name: "wire.delta_diff_mbps", Unit: "MB/s", Better: "higher", Why: "DiffLayer over a set with 5% of entries changed"},
	{Name: "wire.delta_apply_mbps", Unit: "MB/s", Better: "higher", Why: "DeltaLayer.Apply of those deltas"},
	{Name: "wire.entropy_compress_mbps", Unit: "MB/s", Better: "higher", Why: "EntropyCompress of a dense importance frame"},
	{Name: "wire.entropy_expand_mbps", Unit: "MB/s", Better: "higher", Why: "EntropyExpand of that frame"},
	{Name: "wire.encode_header_ms", Unit: "ms", Better: "lower", Why: "Encode of a backbone + header package"},
	{Name: "wire.decode_header_ms", Unit: "ms", Better: "lower", Why: "Decode of that package"},
	{Name: "wire.shaped_bytes_ratio", Unit: "ratio", Better: "higher", Why: "dense frame bytes / delta+entropy frame bytes for one 5%-drift round; exact count"},

	{Name: "transport.mem_send_recv_us", Unit: "us", Better: "lower", Why: "Memory Send + Recv of one upload-sized message"},
	{Name: "transport.tcp_rtt_us", Unit: "us", Better: "lower", Why: "loopback TCP round trip of a 64-byte message"},
	{Name: "transport.tcp_mbps", Unit: "MB/s", Better: "higher", Why: "loopback TCP one-way throughput in upload-sized frames"},
	{Name: "transport.gather_us_per_msg", Unit: "us", Better: "lower", Why: "Session.Gather of 64 expected peers, per message"},
	{Name: "transport.msgs_per_run", Unit: "count", Better: "lower", Why: "messages sent in the workload's run"},
	{Name: "transport.header_bytes", Unit: "B", Better: "lower", Why: "backbone + header package bytes sent in the run"},
	{Name: "transport.loop_bytes", Unit: "B", Better: "lower", Why: "importance uplink + downlink bytes sent in the run"},

	{Name: "fleet.sample_us", Unit: "us", Better: "lower", Why: "Sampler.Sample 10% of 2000 live members"},
	{Name: "fleet.registry_join_us", Unit: "us", Better: "lower", Why: "Registry.Join into a 2000-member registry"},
	{Name: "fleet.record_gather_us", Unit: "us", Better: "lower", Why: "Registry.RecordGather into a 2000-member registry"},

	{Name: "core.round_wall_ms_p50", Unit: "ms", Better: "lower", Why: "median over (edge, round) of gather wall + aggregate + downlink (exchange-replay: the device side's full round)"},
	{Name: "core.device_rounds_per_s", Unit: "1/s", Better: "higher", Why: "invited device-rounds / Phase 2-2 loop wall, the slowest edge's rounds end to end"},
	{Name: "core.gather_wall_ms_p50", Unit: "ms", Better: "lower", Why: "edge wait for a round's uploads"},
	{Name: "core.aggregate_ms_p50", Unit: "ms", Better: "lower", Why: "edge decode + fold + finalize busy time per round"},
	{Name: "core.downlink_ms_p50", Unit: "ms", Better: "lower", Why: "edge downlink encode + send per round"},
	{Name: "core.round_wall_ms_tail", Unit: "ms", Better: "lower", Why: "round tail, a round waits for its slowest invited device: the highest percentile with ten samples beyond it, printed with the sample count"},
	{Name: "core.device_importance_ms_p50", Unit: "ms", Better: "lower", Why: "device critical-path importance compute per round"},
	{Name: "core.prefold_ms_p50", Unit: "ms", Better: "lower", Why: "device fold time overlapped with the upload"},
	{Name: "core.dense_msgs", Unit: "count", Better: "lower", Why: "loop messages that travelled dense, both directions"},
	{Name: "core.delta_msgs", Unit: "count", Better: "higher", Why: "loop messages that travelled as deltas, both directions"},
	{Name: "core.cutoff_count", Unit: "count", Better: "lower", Why: "devices cut from a round; none are configured"},
	{Name: "core.stale_msgs", Unit: "count", Better: "lower", Why: "stale uploads dropped; none are expected"},

	{Name: "replay.phase1_s", Unit: "s", Better: "lower", Why: "traced replay: cloud reference training, sweep, selection, distillation"},
	{Name: "replay.phase21_s", Unit: "s", Better: "lower", Why: "traced replay: similarity, header search, package distribution"},
	{Name: "replay.phase22_round_ms", Unit: "ms", Better: "lower", Why: "traced replay: one importance round across the fleet"},
	{Name: "replay.refine_s", Unit: "s", Better: "lower", Why: "traced replay: device local refinement and evaluation outside the loop"},
	{Name: "replay.cpu_coverage_frac", Unit: "fraction", Better: "higher", Why: "replay total / run_cpu_s: how much of the real run the replay accounts for"},
	{Name: "machine.calib_ms", Unit: "ms", Better: "lower", Why: "a fixed Go loop independent of repo code; drifts only when the machine is noisy"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report fills Metrics from values for exactly the metrics in defs; a
// name values lacks is a bug in the benchmark and fails the run.
func (r *result) report(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			r.Correct = false
			r.Failed++
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
}

// manifest renders BENCHMARK.json from the declarations above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", benchDir + "/run.sh"},
		Paths:      []string{benchDir},
		RunSeconds: runSecs,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	err := enc.Encode(m)
	return out.Bytes(), err
}

// tailQuantile is the highest quantile of n samples that still has ten
// of them beyond it, and never below the median.
func tailQuantile(n int) float64 { return max(0.5, 1-10/float64(n)) }

// median returns the middle of vs (mean of the middle two), 0 if empty.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
