// Command acmebench regenerates every table and figure of the paper's
// evaluation section. Usage:
//
//	acmebench -exp all
//	acmebench -exp table1,fig7a,fig11 -seeds 3
//
// Paper-scale experiments use the calibrated surrogate; micro-scale
// experiments run the real training stack and distributed pipeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"acme/internal/core"
	"acme/internal/experiments"
	"acme/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acmebench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	seeds := flag.Int("seeds", 2, "seeds for averaged micro-scale experiments")
	parallel := flag.Int("parallel", 0, "tensor-kernel goroutines (0 = GOMAXPROCS)")
	quant := flag.String("quant", "lossless", "payload quantization for measured runs: lossless, float16, int8, mixed")
	delta := flag.Bool("delta", false, "delta-encode importance payloads (both directions) in measured runs")
	entropy := flag.Bool("entropy", false, "entropy-code bulk payloads in measured runs (lossless range coder under the binary codec)")
	refresh := flag.Int("refresh", 0, "device importance full-refresh period in measured runs (≤1 = full recompute every round)")
	quorum := flag.Float64("quorum", 0, "straggler quorum fraction in (0,1) for measured runs (set together with -cutoff)")
	cutoff := flag.Duration("cutoff", 0, "straggler deadline per aggregation round for measured runs")
	benchJSON := flag.String("benchjson", "BENCH_3.json", "output path for the bench3 trajectory JSON (bench3 pins its own dense/delta × lossless/mixed variants; -quant/-delta do not apply to it)")
	bench4JSON := flag.String("bench4json", "BENCH_4.json", "output path for the bench4 symmetric-exchange JSON (bench4 pins its own memory/TCP × dense/delta variants)")
	bench5JSON := flag.String("bench5json", "BENCH_5.json", "output path for the bench5 straggler-cutoff JSON (bench5 pins its own wait/cutoff variants)")
	bench6JSON := flag.String("bench6json", "BENCH_6.json", "output path for the bench6 fleet-sampling JSON (bench6 pins its own full/sampled fleet variants)")
	bench7JSON := flag.String("bench7json", "BENCH_7.json", "output path for the bench7 wire-floor JSON (bench7 pins its own entropy on/off variants)")
	bench8JSON := flag.String("bench8json", "BENCH_8.json", "output path for the bench8 adversarial-matrix JSON (bench8 pins its own strategy × lie-prob × link sweep)")
	bench9JSON := flag.String("bench9json", "BENCH_9.json", "output path for the bench9 crash-tolerance JSON (bench9 pins its own kill/restore, overhead, and adversarial cells)")
	bench10JSON := flag.String("bench10json", "BENCH_10.json", "output path for the bench10 scheduler JSON (bench10 pins its own pareto-vs-uniform, sampled-restore, and continuity cells)")
	flag.Parse()
	tensor.SetParallelism(*parallel)
	qm, err := core.ParseQuantMode(*quant)
	if err != nil {
		return err
	}
	experiments.SetWireOptions(qm, *delta, *entropy, *refresh)
	experiments.SetSessionOptions(*quorum, *cutoff)

	type runner struct {
		id string
		fn func() (*experiments.Table, error)
	}
	runners := []runner{
		{"fig1a", wrap(experiments.Fig1a)},
		{"fig1b", wrap(experiments.Fig1b)},
		{"table1", func() (*experiments.Table, error) { return experiments.Table1(2), nil }},
		{"table1-measured", experiments.Table1Measured},
		{"fig7a", wrap(experiments.Fig7a)},
		{"fig7b", wrap(experiments.Fig7b)},
		{"fig7b-micro", func() (*experiments.Table, error) { return experiments.Fig7bMicro(*seeds) }},
		{"fig8", wrap(experiments.Fig8)},
		{"fig9", wrap(experiments.Fig9)},
		{"fig10", experiments.Fig10},
		{"fig11", func() (*experiments.Table, error) { return experiments.Fig11(*seeds) }},
		{"fig12", wrap(experiments.Fig12)},
		{"fig13a", wrap(experiments.Fig13a)},
		{"fig13b", wrap(experiments.Fig13b)},
		{"ext-opset", experiments.ExtOpSet},
		{"ablation-distill", experiments.AblationDistillation},
		{"ablation-controller", experiments.AblationController},
		{"ablation-rounds", experiments.AblationLoopRounds},
		{"bench3", func() (*experiments.Table, error) { return experiments.Bench3JSON(*benchJSON) }},
		{"bench4", func() (*experiments.Table, error) { return experiments.Bench4JSON(*bench4JSON) }},
		{"bench5", func() (*experiments.Table, error) { return experiments.Bench5JSON(*bench5JSON) }},
		{"bench6", func() (*experiments.Table, error) { return experiments.Bench6JSON(*bench6JSON) }},
		{"bench7", func() (*experiments.Table, error) { return experiments.Bench7JSON(*bench7JSON) }},
		{"bench8", func() (*experiments.Table, error) { return experiments.Bench8JSON(*bench8JSON) }},
		{"bench9", func() (*experiments.Table, error) { return experiments.Bench9JSON(*bench9JSON) }},
		{"bench10", func() (*experiments.Table, error) { return experiments.Bench10JSON(*bench10JSON) }},
	}
	// bench3/bench4/bench5/bench6/bench7/bench8/bench9/bench10 rewrite
	// the checked-in BENCH_N.json files and add several full system runs
	// each, so they never ride along with -exp all — they only run when
	// named explicitly (as make bench-json does).
	explicitOnly := map[string]bool{"bench3": true, "bench4": true, "bench5": true, "bench6": true, "bench7": true, "bench8": true, "bench9": true, "bench10": true}

	want := map[string]bool{}
	all := *exp == "all"
	for _, id := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(id)] = true
	}

	ran := 0
	for _, r := range runners {
		if !all && !want[r.id] {
			continue
		}
		if all && explicitOnly[r.id] {
			continue
		}
		table, err := r.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		if err := table.Render(os.Stdout); err != nil {
			return err
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", *exp)
	}
	return nil
}

func wrap(fn func() *experiments.Table) func() (*experiments.Table, error) {
	return func() (*experiments.Table, error) { return fn(), nil }
}
