package core

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// runFlagDefaults is the run-flag set acmesim and acmenode share,
// with acmesim's defaults: name → default as flag.Value.String prints
// it. The fleet-shape flags default from the Config handed in; every
// other default is fixed.
var runFlagDefaults = map[string]string{
	"edges": "2", "devices": "3", "samples": "160", "rounds": "2", "seed": "1",
	"entropy": "false", "quant": "lossless", "delta": "false", "refresh": "0",
	"quorum": "0", "cutoff": "0s", "straggle": "0s",
	"sample-frac": "0", "shared-shards": "false", "chaos": "false",
	"byzantine": "", "byzantine-count": "1", "byzantine-prob": "1", "detect": "false",
	"ckpt-path": "", "ckpt-fsync": "false",
}

func boundFlags(fs *flag.FlagSet) map[string]string {
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	return got
}

// TestBindFlagsSet pins the bound flag set — names and defaults — for
// both command lines: acmesim binds DefaultConfig (2 × 3), acmenode the
// same with a 1 × 2 fleet.
func TestBindFlagsSet(t *testing.T) {
	sim := flag.NewFlagSet("acmesim", flag.ContinueOnError)
	cfg := DefaultConfig()
	BindFlags(sim, &cfg)
	if got := boundFlags(sim); !reflect.DeepEqual(got, runFlagDefaults) {
		t.Fatalf("bound flags differ from the shared run-flag set:\n got  %v\n want %v", got, runFlagDefaults)
	}

	node := flag.NewFlagSet("acmenode", flag.ContinueOnError)
	cfg = DefaultConfig()
	cfg.EdgeServers, cfg.Fleet.Spec.DevicesPerCluster = 1, 2
	BindFlags(node, &cfg)
	want := map[string]string{}
	for k, v := range runFlagDefaults {
		want[k] = v
	}
	want["edges"], want["devices"] = "1", "2"
	if got := boundFlags(node); !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults do not follow the Config handed in:\n got  %v\n want %v", got, want)
	}
}

// TestBindFlagsApply: parsed values land in the Config fields the
// hand-written blocks set, option groups only when switched on, and
// -quant fails with its parser's error.
func TestBindFlagsApply(t *testing.T) {
	parse := func(args ...string) (Config, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg := DefaultConfig()
		apply := BindFlags(fs, &cfg)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return cfg, apply()
	}

	// Nothing set: the Config is the one handed in.
	if cfg, err := parse(); err != nil || !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Fatalf("no flags changed the config (err %v):\n got  %+v\n want %+v", err, cfg, DefaultConfig())
	}
	// Sub-options of a group that is off are ignored, as before.
	if cfg, err := parse("-byzantine-count", "4", "-ckpt-fsync"); err != nil || !reflect.DeepEqual(cfg, DefaultConfig()) {
		t.Fatalf("sub-options of disabled groups leaked into the config (err %v): %+v", err, cfg)
	}

	cfg, err := parse("-edges", "4", "-devices", "5", "-quant", "mixed", "-delta", "-entropy",
		"-quorum", "0.5", "-cutoff", "2s", "-straggle", "30ms", "-sample-frac", "0.25",
		"-chaos",
		"-byzantine", "inflate", "-byzantine-prob", "0.5", "-detect",
		"-ckpt-path", "/tmp/x", "-ckpt-fsync")
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.EdgeServers, want.Fleet.Spec.Clusters, want.Fleet.Spec.DevicesPerCluster = 4, 4, 5
	want.Wire = WireOptions{Entropy: true, Quantization: QuantMixed, DeltaImportance: true}
	want.Straggler = StragglerPolicy{Quorum: 0.5, Deadline: 2 * time.Second, SlowDeviceDelay: 30 * time.Millisecond}
	want.Fleet.SampleFrac = 0.25
	want.Chaos = "default"
	want.Fleet.Byzantine = ByzantineOptions{Strategy: "inflate", Count: 1, Prob: 0.5}
	want.Fleet.Detect = true
	want.Checkpoint = CheckpointOptions{Path: "/tmp/x", Fsync: true}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("parsed config:\n got  %+v\n want %+v", cfg, want)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("a config every flag group touched does not validate: %v", err)
	}

	if _, err := parse("-quant", "int4"); err == nil || !strings.Contains(err.Error(), "unknown quantization") {
		t.Fatalf("-quant int4: %v", err)
	}
	// Validation stays Config.Validate's, with its flag-naming message.
	cfg, err = parse("-quorum", "0.5")
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "-quorum 0.5, -cutoff 0s") {
		t.Fatalf("quorum without cutoff: %v", err)
	}
}
