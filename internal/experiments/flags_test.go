package experiments

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"acme/internal/chaos"
	"acme/internal/core"
)

// TestFlagsReproduceCells: the adversity flags of the command lines
// set what the trajectory's cells set — the chaos link ("" and "ideal"
// are one link), the detector, the Byzantine devices and the straggler
// — and a straggling flag line names its cell's whole run, down to the
// device NewSystem slows.
func TestFlagsReproduceCells(t *testing.T) {
	type adversity struct {
		Link      chaos.Profile
		Detect    bool
		Byzantine core.ByzantineOptions
		Straggler core.StragglerPolicy
	}
	of := func(cfg core.Config) adversity {
		return adversity{core.ChaosLinks[cfg.Chaos], cfg.Fleet.Detect, cfg.Fleet.Byzantine, cfg.Straggler}
	}
	cells := map[string]cell{}
	for _, c := range Cells() {
		cells[c.Name] = c
	}
	for _, row := range []struct{ cell, args string }{
		{"clean-ideal", "-detect"},
		{"clean-default", "-chaos -detect"},
		{"inflate-p100-default", "-chaos -detect -byzantine inflate -byzantine-count 2"},
		{"straggler-wait", "-edges 1 -devices 4 -rounds 4 -quant mixed -delta -straggle 500ms"},
		{"straggler-cutoff", "-edges 1 -devices 4 -rounds 4 -quant mixed -delta -straggle 500ms -quorum 0.75 -cutoff 60ms"},
	} {
		want, err := cells[row.cell].config(0)
		if err != nil {
			t.Fatalf("%s: %v", row.cell, err)
		}
		got := core.DefaultConfig()
		fs := flag.NewFlagSet(row.cell, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		apply := core.BindFlags(fs, &got)
		if err := fs.Parse(strings.Fields(row.args)); err != nil {
			t.Fatal(err)
		}
		if err := apply(); err != nil {
			t.Fatal(err)
		}
		if of(got) != of(want) {
			t.Errorf("%s: %s sets\n %+v\nwant\n %+v", row.cell, row.args, of(got), of(want))
		}
		if want.Straggler.SlowDeviceDelay == 0 {
			continue
		}
		// A straggling flag line names the cell's whole run.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s configures another run:\n got  %+v\n want %+v", row.cell, row.args, got, want)
		}
		sys, err := core.NewSystem(got)
		if err != nil {
			t.Fatal(err)
		}
		id, edge := sys.Straggler()
		if first := sys.Devices()[sys.Clusters()[0][0]].ID; edge != 0 || id != first {
			t.Errorf("%s: straggler device %d of edge %d, want device %d of the only edge", row.cell, id, edge, first)
		}
	}
}
