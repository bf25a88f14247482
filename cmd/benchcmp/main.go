// Command benchcmp diffs the two most recent BENCH_<N>.json trajectory
// files and fails (exit 1) when a gated metric regressed for a config
// present in both — the guard behind `make bench-compare`.
//
// Every document carries a top-level "configs" array whose entries have
// a "name" and flat numeric metrics. Which metrics are gated, and how,
// is not decided here: a trajectory file (BENCH_23 on) carries the gate
// table its generator declares beside each metric (internal/experiments,
// `gates`), in BENCHMARK.json's {name, unit, better, bound} vocabulary
// plus a "kind" saying how the bound is read:
//
//   - relative: fails when worse than the older file's value by more
//     than bound × older (wire volumes, 10 %);
//   - points: fails when worse by more than bound in absolute points
//     (rates in [0,1]: a TPR of 0.02 doubling to 0.04 is noise, a TPR of
//     0.9 falling to 0.8 is a broken detector);
//   - ceiling: fails when at or past bound, whatever the older file
//     says and even on a config the older file lacks (the durability
//     tax).
//
// A gate on an object-valued metric (the per-kind "kind_bytes_total"
// map) applies to each of its keys. The table is read from the newer
// file, or from the older one when the newer predates it; BENCH_3…10
// carry none and compare against a file that does. Metrics or configs
// present in only one file are reported but do not fail the run.
//
//	benchcmp            # compare the two newest BENCH_*.json in .
//	benchcmp A.json B.json  # compare A (older) against B (newer)
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// gate is one row of a trajectory file's gate table.
type gate struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Kind   string  `json:"kind"`
}

// worse is how far now moved in the gate's bad direction from was.
func (g gate) worse(was, now float64) float64 {
	if g.Better == "higher" {
		return was - now
	}
	return now - was
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// latestPair finds the two highest-numbered BENCH_<N>.json files in dir.
func latestPair(dir string) (older, newer string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	type bench struct {
		n    int
		name string
	}
	var found []bench
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		m := benchName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		found = append(found, bench{n: n, name: filepath.Join(dir, e.Name())})
	}
	if len(found) < 2 {
		return "", "", fmt.Errorf("need at least two BENCH_<N>.json files in %s, found %d", dir, len(found))
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	return found[len(found)-2].name, found[len(found)-1].name, nil
}

// document is what benchcmp reads of a trajectory file: each config's
// metrics flattened to name → value (an object-valued metric becomes
// one "metric.key" entry per key), and the gate table if it has one.
type document struct {
	gates   []gate
	configs map[string]map[string]float64
}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Gates   []gate           `json:"gates"`
		Configs []map[string]any `json:"configs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Configs == nil {
		return nil, fmt.Errorf("%s: no configs array", path)
	}
	out := &document{gates: doc.Gates, configs: make(map[string]map[string]float64, len(doc.Configs))}
	for _, obj := range doc.Configs {
		name, ok := obj["name"].(string)
		if !ok {
			continue
		}
		metrics := make(map[string]float64)
		for k, v := range obj {
			switch t := v.(type) {
			case float64:
				metrics[k] = t
			case map[string]any:
				for sub, sv := range t {
					if f, ok := sv.(float64); ok {
						metrics[k+"."+sub] = f
					}
				}
			}
		}
		out.configs[name] = metrics
	}
	return out, nil
}

// gateFor finds the gate on a flattened metric key.
func gateFor(gates []gate, key string) (gate, bool) {
	for _, g := range gates {
		if key == g.Name || strings.HasPrefix(key, g.Name+".") {
			return g, true
		}
	}
	return gate{}, false
}

func run(args []string) error {
	var older, newer string
	switch len(args) {
	case 0:
		var err error
		if older, newer, err = latestPair("."); err != nil {
			return err
		}
	case 2:
		older, newer = args[0], args[1]
	default:
		return fmt.Errorf("usage: benchcmp [older.json newer.json]")
	}

	prev, err := readDocument(older)
	if err != nil {
		return err
	}
	cur, err := readDocument(newer)
	if err != nil {
		return err
	}
	gates := cur.gates
	if len(gates) == 0 {
		gates = prev.gates
	}
	if len(gates) == 0 {
		return fmt.Errorf("neither %s nor %s carries a gate table; compare against a trajectory file (BENCH_23 on)", older, newer)
	}
	fmt.Printf("benchcmp: %s → %s (%d gated metrics)\n", older, newer, len(gates))

	names := make([]string, 0, len(cur.configs))
	for name := range cur.configs {
		names = append(names, name)
	}
	sort.Strings(names)

	compared, regressions := 0, 0
	for _, name := range names {
		prevMetrics, hasPrev := prev.configs[name]
		if !hasPrev {
			fmt.Printf("  %-28s new config, no baseline\n", name)
		}
		keys := make([]string, 0, len(cur.configs[name]))
		for k := range cur.configs[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g, gated := gateFor(gates, k)
			if !gated {
				continue
			}
			now := cur.configs[name][k]
			was, hasWas := prevMetrics[k]
			status := "ok"
			switch {
			case g.Kind == "ceiling":
				if g.worse(g.Bound, now) >= 0 {
					status = "REGRESSION"
				}
				before := "(none)"
				if hasWas {
					before = fmt.Sprintf("%.3f", was)
				}
				fmt.Printf("  %-28s %-28s %12s → %12.3f (ceiling %.2f) %s\n", name, k, before, now, g.Bound, status)
			case !hasWas:
				if hasPrev {
					fmt.Printf("  %-28s %s: new metric, no baseline\n", name, k)
				}
				continue
			case g.Kind == "points":
				if g.worse(was, now) > g.Bound {
					status = "REGRESSION"
				}
				fmt.Printf("  %-28s %-28s %12.3f → %12.3f (%+.3f) %s\n", name, k, was, now, now-was, status)
			default: // relative
				if was > 0 && g.worse(was, now) > g.Bound*was {
					status = "REGRESSION"
				}
				fmt.Printf("  %-28s %-28s %12.0f → %12.0f (%+.1f%%) %s\n", name, k, was, now, 100*(now-was)/was, status)
			}
			compared++
			if status != "ok" {
				regressions++
			}
		}
	}
	var retired []string
	for name := range prev.configs {
		if _, ok := cur.configs[name]; !ok {
			retired = append(retired, name)
		}
	}
	sort.Strings(retired)
	for _, name := range retired {
		fmt.Printf("  %-28s retired config, older file only\n", name)
	}
	if compared == 0 {
		fmt.Println("  no overlapping configs/metrics; nothing to compare")
		return nil
	}
	if regressions > 0 {
		return fmt.Errorf("%d gated metric(s) regressed", regressions)
	}
	fmt.Printf("benchcmp: %d metric(s) compared, no regression\n", compared)
	return nil
}
