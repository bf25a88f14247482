package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestManifestMatchesDeclarations keeps BENCHMARK.json and the metric
// declarations from drifting apart, and holds both to the limits the
// benchmark contract puts on names, units, reasons and bounds.
func TestManifestMatchesDeclarations(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./bench -manifest` from bench/")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want at most 16 and 128", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: direction %q", d.Name, d.Better)
			}
			if d.Why == "" {
				t.Errorf("%s: no reason given", d.Name)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at toy size in both
// trace modes and checks the result line: it parses, it is correct, and
// it carries exactly the declared metrics with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			if trace == 1 && w.Name == wDense {
				// Its traced pass is the shaped one's without the delta
				// lanes, the sockets and the memory twin.
				continue
			}
			o := options{workload: w.Name, seed: 2, seconds: 0, trace: trace, out: t.TempDir(), toy: true}
			res, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   *bool
				Attempted *int
				Failed    *int
				Metrics   map[string]metricValue
			}
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatalf("%s trace %d: result line does not parse: %v", w.Name, trace, err)
			}
			if back.Correct == nil || !*back.Correct || back.Attempted == nil || *back.Attempted < 1 || back.Failed == nil || *back.Failed != 0 {
				t.Errorf("%s trace %d: %s", w.Name, trace, line)
			}
			if len(back.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(back.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := back.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s trace %d: %s has unit %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

// TestExchangeEdgeFailureEndsTheRun sends the edge an upload it must
// reject. The run has to end with the edge's error instead of leaving
// the device side waiting for downlinks that never come.
func TestExchangeEdgeFailureEndsTheRun(t *testing.T) {
	x, err := buildExchange(1, exchangeSize{devices: 4, rounds: 3, denseRounds: 2, checkEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	x.state[1][0] = x.state[1][0][:len(x.state[1][0])/2]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = x.run(ctx, nil)
	if err == nil || errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "aggregate:") {
		t.Fatalf("run ended with %v, want the combiner's shape error", err)
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := runWorkload(context.Background(), options{workload: "nope"}); err == nil {
		t.Fatal("no error for an unknown workload")
	}
}

func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if got := median(vs); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(vs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 %v, want 3.7", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing %v, want 0", got)
	}
	for n, want := range map[int]float64{3: 0.5, 20: 0.5, 40: 0.75, 100: 0.9} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tail of %d samples is %v, want %v", n, got, want)
		}
	}
}
