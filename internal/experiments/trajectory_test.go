package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"acme/internal/core"
)

// recorded reads one checked-in trajectory file's configs by name.
func recorded(t *testing.T, n int) map[string]map[string]any {
	t.Helper()
	raw, err := os.ReadFile(fmt.Sprintf("../../BENCH_%d.json", n))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Configs []map[string]any `json:"configs"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]any, len(doc.Configs))
	for _, c := range doc.Configs {
		out[c["name"].(string)] = c
	}
	return out
}

// TestTrajectoryConfigsValid: every cell of the trajectory — wire
// shapes, transports, stragglers, fleets, and the whole strategy ×
// lie-probability × link matrix — must pass system validation, under
// a name that is its own.
func TestTrajectoryConfigsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range cells() {
		if seen[c.Name] {
			t.Errorf("cell name %q used twice", c.Name)
		}
		seen[c.Name] = true
		cfg, err := c.config(0)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
	// The trajectory replaces BENCH_3…10's generators: every config any
	// checked-in file recorded is still a cell, or was retired by the PR
	// named here.
	retired := map[string]int{"sched-uniform": 24, "sched-pareto": 24}
	for _, n := range []int{3, 4, 5, 6, 7, 8, 9, 10, 23} {
		for name := range recorded(t, n) {
			if _, gone := retired[name]; !seen[name] && !gone {
				t.Errorf("BENCH_%d.json's %q is not a trajectory cell", n, name)
			}
		}
	}
	if len(seen) != 46 {
		t.Errorf("%d cells, want 46 (the 48 of BENCH_3…10 less the retired pair)", len(seen))
	}
}

// TestGatesNameMetrics: the gate table benchcmp reads must name metric
// keys the file actually carries.
func TestGatesNameMetrics(t *testing.T) {
	keys := map[string]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Anonymous {
				walk(f.Type)
			} else {
				keys[strings.Split(f.Tag.Get("json"), ",")[0]] = true
			}
		}
	}
	walk(reflect.TypeOf(report{}))
	for _, g := range gates {
		if !keys[g.Name] {
			t.Errorf("gate %q names no metric of the report", g.Name)
		}
		if (g.Better != "lower" && g.Better != "higher") || g.Bound <= 0 ||
			(g.Kind != "relative" && g.Kind != "points" && g.Kind != "ceiling") {
			t.Errorf("gate %+v is outside the vocabulary", g)
		}
	}
}

// TestDetectionAccounting pins the TPR/FPR/rounds-to-detect arithmetic
// on a synthetic pair of trial results.
func TestDetectionAccounting(t *testing.T) {
	var acc tally
	// Trial 1: both liars flagged (device 0 at round 1, device 1 at
	// round 2), device 0 evicted; honest device 3 falsely flagged once;
	// every honest device reports.
	acc.fold(&core.Result{
		Phase2Rounds: []core.Phase2RoundStat{
			{Round: 1, Suspects: []int{0, 3}},
			{Round: 2, Suspects: []int{0, 1}, EvictedDevices: []int{0}},
		},
		Reports: []core.DeviceReport{{DeviceID: 2}, {DeviceID: 3}, {DeviceID: 4}, {DeviceID: 5}},
	}, 2, 6)
	// Trial 2: nothing detected, everyone reports.
	acc.fold(&core.Result{
		Reports: []core.DeviceReport{
			{DeviceID: 0}, {DeviceID: 1}, {DeviceID: 2},
			{DeviceID: 3}, {DeviceID: 4}, {DeviceID: 5},
		},
	}, 2, 6)

	c, _ := acc.rates()
	if c.DetectionTPR != 0.5 { // 2 of 4 byzantine device-trials flagged
		t.Errorf("TPR %v, want 0.5", c.DetectionTPR)
	}
	if c.DetectionFPR != 0.125 { // 1 of 8 honest device-trials flagged
		t.Errorf("FPR %v, want 0.125", c.DetectionFPR)
	}
	if c.EvictionRate != 0.25 { // 1 of 4 byzantine device-trials evicted
		t.Errorf("eviction rate %v, want 0.25", c.EvictionRate)
	}
	if c.MeanRoundsToDetect != 1.5 { // rounds 1 and 2
		t.Errorf("rounds to detect %v, want 1.5", c.MeanRoundsToDetect)
	}
	if c.HonestReportRate != 1.0 {
		t.Errorf("honest report rate %v, want 1.0", c.HonestReportRate)
	}

	var empty tally
	if e, _ := empty.rates(); e.MeanRoundsToDetect != -1 {
		t.Errorf("undetected sentinel %v, want -1", e.MeanRoundsToDetect)
	}
}

// TestContinuityPinned runs the two cells every PR since 3 has re-run
// unchanged — acmesim's default scenario at seed 1, dense lossless and
// delta + mixed — and requires the bytes of the importance loop, the
// per-kind byte map and the final accuracy the checked-in BENCH_10.json
// recorded. These numbers are the refactoring licence of everything
// under the round engines; until this test only a hand-run regeneration
// stated them.
func TestContinuityPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipeline runs")
	}
	want := recorded(t, 10)
	pinned := map[string][2]int64{
		"dense-lossless": {1066020, 1065996},
		"delta-mixed":    {309452, 318412},
	}
	for _, c := range cells() {
		pin, ok := pinned[c.Name]
		if !ok {
			continue
		}
		rep, err := runCell(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ImportanceBytesTotal != pin[0] || rep.DownlinkBytesTotal != pin[1] {
			t.Errorf("%s: uplink %d B, downlink %d B, want %d / %d",
				c.Name, rep.ImportanceBytesTotal, rep.DownlinkBytesTotal, pin[0], pin[1])
		}
		rec := want[c.Name]
		if rec["importance_bytes_total"] != float64(pin[0]) || rec["downlink_bytes_total"] != float64(pin[1]) {
			t.Errorf("%s: BENCH_10.json no longer records the pinned bytes", c.Name)
		}
		kinds := map[string]any{}
		for k, v := range rep.KindBytesTotal {
			kinds[k] = float64(v)
		}
		if !reflect.DeepEqual(kinds, rec["kind_bytes_total"]) {
			t.Errorf("%s: per-kind bytes %v, BENCH_10.json has %v", c.Name, kinds, rec["kind_bytes_total"])
		}
		if rep.MeanAccuracyFinal != rec["mean_accuracy_final"] {
			t.Errorf("%s: mean accuracy %v, BENCH_10.json has %v", c.Name, rep.MeanAccuracyFinal, rec["mean_accuracy_final"])
		}
	}
}
