package core

import (
	"context"
	"testing"
	"time"

	"acme/internal/chaos"
	"acme/internal/transport"
)

// TestSystemTolerantOfDelaysAndReordering runs the full pipeline over a
// transport that delays every message by a random amount, reordering
// deliveries across senders. The protocol must still complete with the
// same results as the reliable in-memory run.
func TestSystemTolerantOfDelaysAndReordering(t *testing.T) {
	cfg := tinyConfig()

	// Reference run on the reliable transport.
	ref, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	want, err := ref.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Flaky run: same config, every delivery delayed up to 3ms.
	mem := transport.NewMemory()
	flaky := chaos.New(mem, chaos.Options{Seed: 42, Default: chaos.Profile{Jitter: 3 * time.Millisecond}})
	sys, err := NewSystemWithNetwork(cfg, flaky)
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range sys.RoleNames() {
		mem.Register(role, 256)
	}
	got, err := sys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	flaky.Wait()

	if len(got.Reports) != len(want.Reports) {
		t.Fatalf("flaky run produced %d reports, reliable %d", len(got.Reports), len(want.Reports))
	}
	// Determinism must survive arbitrary delivery delays: the protocol
	// orders aggregation inputs by device id, so accuracies match the
	// reliable run exactly.
	byID := func(reports []DeviceReport) map[int]DeviceReport {
		m := make(map[int]DeviceReport, len(reports))
		for _, r := range reports {
			m[r.DeviceID] = r
		}
		return m
	}
	wantBy, gotBy := byID(want.Reports), byID(got.Reports)
	for id, w := range wantBy {
		g, ok := gotBy[id]
		if !ok {
			t.Fatalf("device %d missing from flaky run", id)
		}
		if g.AccuracyFinal != w.AccuracyFinal || g.AccuracyCoarse != w.AccuracyCoarse {
			t.Fatalf("device %d diverged under delays: %+v vs %+v", id, g, w)
		}
	}

	// Third run through the Config.Chaos front door: the "default"
	// link's full model (base delay + jitter + spikes + bandwidth
	// serialization) wrapped around the in-memory transport by
	// NewSystem itself. Chaos perturbs timing and order, never
	// payloads, so the seeded results must match the reliable run
	// bitwise.
	chaosCfg := cfg
	chaosCfg.Chaos = "default"
	chaosSys, err := NewSystem(chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	cn, ok := chaosSys.Net.(*chaos.Net)
	if !ok {
		t.Fatalf("Config.Chaos did not install the chaos transport: %T", chaosSys.Net)
	}
	got, err = chaosSys.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cn.Wait()
	if err := cn.Err(); err != nil {
		t.Fatalf("chaos links reported errors: %v", err)
	}
	gotBy = byID(got.Reports)
	if len(gotBy) != len(wantBy) {
		t.Fatalf("chaos run produced %d reports, reliable %d", len(gotBy), len(wantBy))
	}
	for id, w := range wantBy {
		g, ok := gotBy[id]
		if !ok {
			t.Fatalf("device %d missing from chaos run", id)
		}
		if g.AccuracyFinal != w.AccuracyFinal || g.AccuracyCoarse != w.AccuracyCoarse {
			t.Fatalf("device %d diverged under chaos links: %+v vs %+v", id, g, w)
		}
	}
}
