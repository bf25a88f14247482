// Command bench is the repository's standing benchmark: four workloads,
// nine end-to-end metrics with regression bounds, and a per-layer
// budget from tensor to core. See README.md.
//
//	bash bench/run.sh                      every workload, full report
//	bash bench/run.sh -aa                  the same twice, compared against the bounds
//	bash bench/run.sh -workload W -trace 0 one workload's end-to-end metrics
//	bash bench/run.sh -workload W -trace 1 one workload's per-layer metrics and trace
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"acme"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	out      string
	// toy shrinks every workload and times each layer call once; only
	// the unit test sets it.
	toy bool
}

func main() {
	var o options
	printManifest := false
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all four, both trace modes, and prints the full report")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs: exchange-replay's payloads and drift (Config.Seed is part of a workload's shape, see README.md)")
	flag.Float64Var(&o.seconds, "seconds", runSecs, "how long a run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and the span trace")
	flag.BoolVar(&o.aa, "aa", false, "run the whole benchmark twice and compare the two sets against the bounds")
	flag.StringVar(&o.out, "out", benchDir+"/out", "directory for span traces")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if printManifest {
		m, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(m)
		return
	}
	// Two cores at most: the sizing numbers and the prediction table in
	// README.md were measured there.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	ctx := context.Background()
	if o.workload == "" {
		os.Exit(runAll(ctx, o))
	}
	res, err := runWorkload(ctx, o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runWorkload measures one workload in one trace mode.
func runWorkload(ctx context.Context, o options) (result, error) {
	var c checks
	values, defs, err := measureWorkload(ctx, o, &c)
	if err != nil {
		return result{}, err
	}
	for _, note := range c.notes {
		fmt.Println("FAILED:", note)
	}
	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed}
	res.report(defs, values)
	for _, d := range defs {
		fmt.Printf("%-34s %16.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	return res, nil
}

// measureWorkload returns the values of the trace mode's metrics.
func measureWorkload(ctx context.Context, o options, c *checks) (map[string]float64, []metricDef, error) {
	size, sp := fullExchange, fullSampling
	if o.toy {
		size, sp = exchangeSize{devices: 4, rounds: 3, denseRounds: 2, checkEvery: 1}, sampling{}
	}
	var cfg acme.Config
	if o.workload != wReplay {
		var err error
		if cfg, err = systemConfig(o.workload, o.toy); err != nil {
			return nil, nil, fmt.Errorf("%w (workloads: %s)", err, workloadNames())
		}
	}
	if o.trace == 0 {
		if o.workload == wReplay {
			values, err := exchangeEndToEnd(ctx, o.seed, size, o.seconds, c)
			return values, endToEnd, err
		}
		values, err := systemEndToEnd(ctx, o.workload, cfg, o.seconds, c)
		return values, endToEnd, err
	}
	// The traced pass: every layer's timings, then the workload's own
	// run and replay for the core, transport-count and replay rows. The
	// calibration loop runs before, between and after them: this box's
	// speed moves within a pass.
	calib := []float64{calibrate(sp)}
	values, err := layerMetrics(ctx, sp, o.toy)
	if err != nil {
		return nil, nil, err
	}
	calib = append(calib, calibrate(sp))
	// Under one allocation per two decodes is the runtime's own noise
	// in the process-wide counter.
	c.expect(values["wire.decode_dense_allocs"] < 0.5, "wire.decode_dense_allocs = %v, want 0", values["wire.decode_dense_allocs"])
	var own map[string]float64
	if o.workload == wReplay {
		own, err = exchangeLayers(ctx, o, size, c)
	} else {
		own, err = systemLayers(ctx, o, cfg, c)
	}
	for k, v := range own {
		values[k] = v
	}
	values["machine.calib_ms"] = median(append(calib, calibrate(sp)))
	return values, perLayer, err
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// systemLayers is a customization workload's share of the traced pass:
// one real run for the core.* rows (and, for the TCP workload, its twin
// over the memory transport, which must agree with it), and the serial
// replay that gives the phase budget and the span trace.
func systemLayers(ctx context.Context, o options, cfg acme.Config, c *checks) (map[string]float64, error) {
	tcp := o.workload == wShaped
	run, err := runSystem(ctx, cfg, tcp)
	if err != nil {
		return nil, err
	}
	checkRun(c, cfg, run, tcp)
	if tcp {
		// The same config over the memory transport must move the same
		// bytes to the same accuracy.
		twin, err := runSystem(ctx, cfg, false)
		if err != nil {
			return nil, err
		}
		checkRun(c, cfg, twin, false)
		sameOutcome(c, "memory vs TCP", run, twin, true)
	}
	values := coreLayer(run, cfg)

	sys, err := acme.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	tr := NewTracer(o.workload)
	if err := replaySystem(ctx, tr, cfg, sys); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	b := phaseBudget(tr.Spans())
	values["replay.phase1_s"] = b[spanPhase1]
	values["replay.phase21_s"] = b[spanPhase21]
	values["replay.phase22_round_ms"] = b[spanPhase22] / float64(cfg.Phase2Rounds) * 1e3
	values["replay.refine_s"] = b[spanRefine]
	values["replay.cpu_coverage_frac"] = b.total() / run.cpuS
	return values, finishTrace(o, tr, SelfTable(tr.Spans()), b, run.cpuS)
}

// exchangeLayers is exchange-replay's share of the traced pass: one
// traced replay of the rounds.
func exchangeLayers(ctx context.Context, o options, size exchangeSize, c *checks) (map[string]float64, error) {
	x, err := buildExchange(o.seed, size)
	if err != nil {
		return nil, err
	}
	tr := NewTracer(wReplay)
	run, err := x.run(ctx, tr)
	if err != nil {
		return nil, err
	}
	checkExchange(c, size, run)
	// The two goroutines wait for each other inside Gather and Recv:
	// that self time is waiting, not CPU, and stays out of the budget.
	var busy []SelfRow
	var busyS float64
	for _, r := range SelfTable(tr.Spans()) {
		if r.Name != "transport.Gather" && r.Name != "transport.Recv" {
			busy = append(busy, r)
			busyS += r.SelfNS / 1e9
		}
	}
	var loopS float64
	for _, ms := range run.roundMS {
		loopS += ms / 1e3
	}
	tail := tailQuantile(len(run.roundMS))
	fmt.Printf("%d round samples, tail is p%.0f\n", len(run.roundMS), 100*tail)
	values := map[string]float64{
		"core.round_wall_ms_p50":        median(run.roundMS),
		"core.device_rounds_per_s":      float64(size.devices*size.rounds) / loopS,
		"core.gather_wall_ms_p50":       median(run.gatherMS),
		"core.aggregate_ms_p50":         median(run.aggMS),
		"core.downlink_ms_p50":          median(run.downMS),
		"core.round_wall_ms_tail":       quantile(run.roundMS, tail),
		"core.device_importance_ms_p50": 0,
		"core.prefold_ms_p50":           0,
		"core.dense_msgs":               float64(2 * run.denseMsgs),
		"core.delta_msgs":               float64(2 * run.deltaMsgs),
		"core.cutoff_count":             0,
		"core.stale_msgs":               0,
		"transport.msgs_per_run":        float64(run.msgs),
		"transport.header_bytes":        0,
		"transport.loop_bytes":          float64(run.loopBytes),
		"replay.phase1_s":               0,
		"replay.phase21_s":              0,
		"replay.phase22_round_ms":       busyS / float64(size.rounds) * 1e3,
		"replay.refine_s":               0,
		"replay.cpu_coverage_frac":      busyS / run.cpuS,
	}
	return values, finishTrace(o, tr, busy, budget{spanPhase22: busyS}, run.cpuS)
}

// finishTrace prints the phase budget and the largest rows of the
// self-time table and writes the trace's spans out.
func finishTrace(o options, tr *Tracer, rows []SelfRow, b budget, cpuS float64) error {
	fmt.Printf("phase budget (weighted self time, s): phase1 %.2f  phase21 %.2f  phase22 %.2f  refine %.2f  total %.2f  run_cpu_s %.2f\n",
		b[spanPhase1], b[spanPhase21], b[spanPhase22], b[spanRefine], b.total(), cpuS)
	printSelfTable(rows, 15)
	path, err := tr.WriteJSONL(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return err
	}
	fmt.Printf("%d spans written to %s\n", len(tr.Spans()), path)
	return nil
}

// key names one (workload, metric) cell of the report.
type key struct{ workload, metric string }

// set is one pass over every workload in both trace modes.
type set struct {
	values  map[key]float64
	correct bool
}

// runSet runs every workload in a child process per trace mode, so
// peak_rss_mb and the collector's state are each workload's own.
func runSet(ctx context.Context, o options) (set, error) {
	self, err := os.Executable()
	if err != nil {
		return set{}, err
	}
	s := set{values: map[key]float64{}, correct: true}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			fmt.Printf("\n== %s, trace %d\n", w.Name, trace)
			cmd := exec.CommandContext(ctx, self,
				"-workload", w.Name, "-trace", fmt.Sprint(trace),
				"-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds), "-out", o.out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				return s, err
			}
			if err := cmd.Start(); err != nil {
				return s, err
			}
			var last string
			sc := bufio.NewScanner(stdout)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				if last != "" {
					fmt.Println(last)
				}
				last = sc.Text()
			}
			waitErr := cmd.Wait()
			var res result
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				return s, fmt.Errorf("%s trace %d: no result line (%v): %v", w.Name, trace, waitErr, err)
			}
			fmt.Printf("correct %v, attempted %d, failed %d\n", res.Correct, res.Attempted, res.Failed)
			s.correct = s.correct && res.Correct && waitErr == nil
			for name, v := range res.Metrics {
				s.values[key{w.Name, name}] = v.Value
			}
		}
	}
	return s, nil
}

// printReport prints every metric by name with its unit, one column per
// workload.
func printReport(s set) {
	fmt.Printf("\n%-34s %-9s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %20s", w.Name)
	}
	fmt.Println()
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			fmt.Printf("%-34s %-9s", d.Name, d.Unit)
			for _, w := range workloads {
				fmt.Printf(" %20.6g", s.values[key{w.Name, d.Name}])
			}
			fmt.Println()
		}
	}
}

// runAll is the one command: every workload, then the report; with -aa
// twice, then the comparison. It returns the exit code.
func runAll(ctx context.Context, o options) int {
	first, err := runSet(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printReport(first)
	ok := first.correct
	if o.aa {
		second, err := runSet(ctx, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		printReport(second)
		ok = ok && second.correct && compareSets(first, second)
	}
	if !ok {
		fmt.Println("\nFAILED")
		return 1
	}
	fmt.Println("\nok")
	return 0
}

// setupFloorS is the least change of setup_s that counts: the set-ups
// here take milliseconds, and a quarter of two milliseconds is this
// box's own jitter.
const setupFloorS = 0.05

// compareSets prints, per workload and end-to-end metric, how much
// worse the second set is than the first beside the metric's bound, and
// reports whether every metric stayed within it. The move of
// machine.calib_ms is printed for orientation only: the loop is noisier
// than the runs (README.md), so it excuses nothing.
func compareSets(a, b set) bool {
	fmt.Printf("\n%-22s %-30s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	breaches := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			x, y := a.values[key{w.Name, d.Name}], b.values[key{w.Name, d.Name}]
			worse := y - x
			if d.Better == "higher" {
				worse = -worse
			}
			allowed := d.Bound * x
			if d.Name == "setup_s" {
				allowed = max(allowed, setupFloorS)
			}
			mark := ""
			if worse > allowed {
				mark = "  BREACH"
				breaches++
			}
			fmt.Printf("%-22s %-30s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", w.Name, d.Name, x, y, 100*worse/x, 100*d.Bound, mark)
		}
		k := key{w.Name, "machine.calib_ms"}
		fmt.Printf("%-22s %-30s %14.6g %14.6g %+8.2f%%\n", w.Name, k.metric, a.values[k], b.values[k], 100*(b.values[k]-a.values[k])/a.values[k])
	}
	if breaches > 0 {
		fmt.Printf("%d breaches\n", breaches)
	}
	return breaches == 0
}
