// Command acmebench regenerates every table and figure of the paper's
// evaluation section. Usage:
//
//	acmebench -exp all
//	acmebench -exp table1,fig7a,fig11 -seeds 3
//	acmebench -exp trajectory -json BENCH_24.json
//
// Paper-scale experiments use the calibrated surrogate; micro-scale
// experiments run the real training stack and distributed pipeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

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
	jsonPath := flag.String("json", "", "write the trajectory document here (-exp trajectory; empty only renders the table)")
	flag.Parse()
	tensor.SetParallelism(*parallel)

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
		{"trajectory", func() (*experiments.Table, error) { return experiments.Trajectory(*jsonPath) }},
	}
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
		// The trajectory is ~200 full system runs and rewrites a
		// checked-in BENCH_<N>.json, so it never rides along with -exp
		// all — it only runs when named (as make bench-json does).
		if all && r.id == "trajectory" {
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
