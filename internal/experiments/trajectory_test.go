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
	for _, c := range Cells() {
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
	// dense-mixed went when quantized sets came to ride only the delta
	// records: it now sends exactly delta-mixed's frames.
	retired := map[string]int{"sched-uniform": 24, "sched-pareto": 24, "dense-mixed": 26}
	for _, n := range []int{3, 4, 5, 6, 7, 8, 9, 10, 23} {
		for name := range recorded(t, n) {
			if _, gone := retired[name]; !seen[name] && !gone {
				t.Errorf("BENCH_%d.json's %q is not a trajectory cell", n, name)
			}
		}
	}
	if len(seen) != 51 {
		t.Errorf("%d cells, want 51 (the 48 of BENCH_3…10 less the three retired, plus topk-005, float16, int8 and the three device and detector restore cells)", len(seen))
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
// stated them. Three recorded changes since BENCH_10.json. Two are
// empty lists gone from the wire: each dense ImportanceUpload and
// PersonalizedSet frame lost its packed-lane list (2 B), and each dense
// ImportanceUpload its sparse-layer list (2 B more). A cell's recorded
// bytes are its pins plus 4 B per dense frame up and 2 B per dense
// frame down. The third left the loop alone: parameter blobs stopped
// carrying their parameter's name, so each cell's backbone frames are
// blobNames.backbone bytes and its header frames blobNames.header bytes
// shorter than recorded.
func TestContinuityPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pipeline runs")
	}
	want := recorded(t, 10)
	pinned := map[string]struct{ up, down, denseFrames int64 }{
		"dense-lossless": {1065924, 1065948, 24},
		"delta-mixed":    {309452, 318412, 0},
	}
	blobNames := struct{ backbone, header int64 }{2692, 9162}
	for _, c := range Cells() {
		pin, ok := pinned[c.Name]
		if !ok {
			continue
		}
		rep, err := runCell(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ImportanceBytesTotal != pin.up || rep.DownlinkBytesTotal != pin.down {
			t.Errorf("%s: uplink %d B, downlink %d B, want %d / %d",
				c.Name, rep.ImportanceBytesTotal, rep.DownlinkBytesTotal, pin.up, pin.down)
		}
		upShrunk, downShrunk := 4*pin.denseFrames, 2*pin.denseFrames
		rec := want[c.Name]
		if rec["importance_bytes_total"] != float64(pin.up+upShrunk) || rec["downlink_bytes_total"] != float64(pin.down+downShrunk) {
			t.Errorf("%s: BENCH_10.json no longer records the pinned bytes", c.Name)
		}
		kinds := map[string]any{}
		for k, v := range rep.KindBytesTotal {
			switch k {
			case "importance-set":
				v += upShrunk
			case "personalized-set":
				v += downShrunk
			case "backbone":
				v += blobNames.backbone
			case "header":
				v += blobNames.header
			}
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
