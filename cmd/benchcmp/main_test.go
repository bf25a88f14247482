package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gateTable is the table a trajectory file carries, in BENCHMARK.json's
// {name, unit, better, bound} vocabulary plus how the bound is read.
// Older files (BENCH_3…10) have none.
var gateTable = []map[string]any{
	{"name": "importance_bytes_total", "unit": "B", "better": "lower", "bound": 0.10, "kind": "relative"},
	{"name": "kind_bytes_total", "unit": "B", "better": "lower", "bound": 0.10, "kind": "relative"},
	{"name": "detection_tpr", "unit": "fraction", "better": "higher", "bound": 0.05, "kind": "points"},
	{"name": "detection_fpr", "unit": "fraction", "better": "lower", "bound": 0.05, "kind": "points"},
	{"name": "ckpt_overhead_frac", "unit": "fraction", "better": "lower", "bound": 0.05, "kind": "ceiling"},
	{"name": "bytes_per_point_vs_uniform_ratio", "unit": "ratio", "better": "lower", "bound": 1.0, "kind": "ceiling"},
}

type config = map[string]any

// writeDoc writes one trajectory document; gates selects the new
// schema (gate table present) or the old one.
func writeDoc(t *testing.T, name string, gates bool, configs ...config) string {
	t.Helper()
	doc := map[string]any{"experiment": name, "configs": configs}
	if gates {
		doc["gates"] = gateTable
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compare runs benchcmp on the pair and returns what it printed.
func compare(t *testing.T, older, newer string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run([]string{older, newer})
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestGates pins every gate on small synthetic documents: an old-schema
// file (no gate table) as the older side, a trajectory file as the newer.
func TestGates(t *testing.T) {
	cases := []struct {
		name     string
		older    []config
		newer    []config
		fails    bool
		reported []string
	}{
		{
			name:  "bytes within 10% pass",
			older: []config{{"name": "dense", "importance_bytes_total": 1000}},
			newer: []config{{"name": "dense", "importance_bytes_total": 1090}},
		},
		{
			name:  "bytes over 10% fail",
			older: []config{{"name": "dense", "importance_bytes_total": 1000}},
			newer: []config{{"name": "dense", "importance_bytes_total": 1110}},
			fails: true,
		},
		{
			name:     "per-kind map is flattened and gated per kind",
			older:    []config{{"name": "dense", "kind_bytes_total": config{"importance-set": 1000, "report": 10}}},
			newer:    []config{{"name": "dense", "kind_bytes_total": config{"importance-set": 1200, "report": 10}}},
			fails:    true,
			reported: []string{"kind_bytes_total.importance-set", "kind_bytes_total.report"},
		},
		{
			name:  "per-kind map unchanged passes",
			older: []config{{"name": "dense", "kind_bytes_total": config{"importance-set": 1000}}},
			newer: []config{{"name": "dense", "kind_bytes_total": config{"importance-set": 1000}}},
		},
		{
			name:  "tpr down 0.04 passes",
			older: []config{{"name": "cell", "detection_tpr": 1.0}},
			newer: []config{{"name": "cell", "detection_tpr": 0.96}},
		},
		{
			name:  "tpr down 0.06 fails",
			older: []config{{"name": "cell", "detection_tpr": 1.0}},
			newer: []config{{"name": "cell", "detection_tpr": 0.94}},
			fails: true,
		},
		{
			name:  "tpr up passes",
			older: []config{{"name": "cell", "detection_tpr": 0.1}},
			newer: []config{{"name": "cell", "detection_tpr": 1.0}},
		},
		{
			name:  "fpr up 0.04 passes",
			older: []config{{"name": "cell", "detection_fpr": 0.0}},
			newer: []config{{"name": "cell", "detection_fpr": 0.04}},
		},
		{
			name:  "fpr up 0.06 fails",
			older: []config{{"name": "cell", "detection_fpr": 0.0}},
			newer: []config{{"name": "cell", "detection_fpr": 0.06}},
			fails: true,
		},
		{
			name:  "overhead under the ceiling passes whatever the older value",
			older: []config{{"name": "ckpt", "ckpt_overhead_frac": 0.5}},
			newer: []config{{"name": "ckpt", "ckpt_overhead_frac": 0.04}},
		},
		{
			name:  "overhead over the ceiling fails whatever the older value",
			older: []config{{"name": "ckpt", "ckpt_overhead_frac": 0.5}},
			newer: []config{{"name": "ckpt", "ckpt_overhead_frac": 0.06}},
			fails: true,
		},
		{
			name:     "uniform ratio under 1.0 passes on a config with no baseline",
			older:    []config{{"name": "other", "importance_bytes_total": 1}},
			newer:    []config{{"name": "pareto", "bytes_per_point_vs_uniform_ratio": 0.96}},
			reported: []string{"new config, no baseline"},
		},
		{
			name:  "uniform ratio at 1.0 fails on a config with no baseline",
			older: []config{{"name": "other", "importance_bytes_total": 1}},
			newer: []config{{"name": "pareto", "bytes_per_point_vs_uniform_ratio": 1.0}},
			fails: true,
		},
		{
			name:  "uniform ratio at 1.0 fails with a baseline too",
			older: []config{{"name": "pareto", "bytes_per_point_vs_uniform_ratio": 0.9}},
			newer: []config{{"name": "pareto", "bytes_per_point_vs_uniform_ratio": 1.0}},
			fails: true,
		},
		{
			name: "a config or metric in one file only is reported, not failed",
			older: []config{
				{"name": "dense", "importance_bytes_total": 1000},
				{"name": "retired", "importance_bytes_total": 5},
			},
			newer: []config{
				{"name": "dense", "importance_bytes_total": 1000, "kind_bytes_total": config{"report": 99}},
				{"name": "added", "importance_bytes_total": 1 << 30},
			},
			reported: []string{"new config, no baseline", "new metric, no baseline", "retired config, older file only"},
		},
		{
			name:  "an ungated metric is ignored",
			older: []config{{"name": "dense", "importance_bytes_total": 1000, "wall_seconds": 1}},
			newer: []config{{"name": "dense", "importance_bytes_total": 1000, "wall_seconds": 100}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			older := writeDoc(t, "older", false, tc.older...)
			newer := writeDoc(t, "newer", true, tc.newer...)
			out, err := compare(t, older, newer)
			if tc.fails && err == nil {
				t.Fatalf("passed, want a regression:\n%s", out)
			}
			if !tc.fails && err != nil {
				t.Fatalf("failed (%v), want a pass:\n%s", err, out)
			}
			if tc.fails && !strings.Contains(out, "REGRESSION") {
				t.Errorf("no REGRESSION row printed:\n%s", out)
			}
			for _, want := range tc.reported {
				if !strings.Contains(out, want) {
					t.Errorf("output does not report %q:\n%s", want, out)
				}
			}
		})
	}
}

// TestLatestPair: with no arguments the two highest-numbered files are
// compared, by number and not by name (BENCH_9 < BENCH_10 < BENCH_23).
func TestLatestPair(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"BENCH_3.json", "BENCH_9.json", "BENCH_10.json", "BENCH_23.json", "BENCHMARK.json"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	older, newer, err := latestPair(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(older) != "BENCH_10.json" || filepath.Base(newer) != "BENCH_23.json" {
		t.Fatalf("picked %s → %s, want BENCH_10.json → BENCH_23.json", older, newer)
	}
}
