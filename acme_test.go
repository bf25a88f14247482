package acme

import (
	"context"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"acme/internal/experiments"
	"acme/internal/wire"
)

// smallConfig is a fast end-to-end configuration for facade tests.
func smallConfig() Config {
	cfg := experiments.MicroConfig()
	cfg.Fleet.Spec.DevicesPerCluster = 2
	cfg.SamplesPerDevice = 60
	cfg.Phase2Rounds = 1
	return cfg
}

func TestRunEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := Run(ctx, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("got %d reports", len(res.Reports))
	}
	if res.MeanAccuracyFinal() <= 0 {
		t.Fatal("zero final accuracy")
	}
}

// TestRunReleasesEveryFrame: Run closes its network, so every frame the
// run leased is back in wire's pool when it returns, over the memory
// network and over the chaos network that wraps it.
func TestRunReleasesEveryFrame(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, chaos := range []bool{false, true} {
		t.Run(fmt.Sprintf("chaos=%v", chaos), func(t *testing.T) {
			cfg := smallConfig()
			if chaos {
				cfg.Chaos = "default"
			}
			start := wire.Leased()
			if _, err := Run(ctx, cfg); err != nil {
				t.Fatal(err)
			}
			if n := wire.Leased() - start; n != 0 {
				t.Fatalf("%d frames still leased after Run", n)
			}
		})
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	cfg := smallConfig()
	a, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanAccuracyFinal() != b.MeanAccuracyFinal() {
		t.Fatalf("same seed produced different results: %v vs %v",
			a.MeanAccuracyFinal(), b.MeanAccuracyFinal())
	}
	cfg.Seed = 999
	c, err := Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds should (almost surely) differ somewhere.
	if c.MeanAccuracyFinal() == a.MeanAccuracyFinal() && c.MeanAccuracyCoarse() == a.MeanAccuracyCoarse() {
		t.Log("warning: different seeds produced identical accuracies (possible but unlikely)")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.Widths = nil
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("empty width lattice accepted")
	}
	cfg2 := smallConfig()
	cfg2.Backbone.DModel = 7 // not divisible by heads
	if _, err := Run(context.Background(), cfg2); err == nil {
		t.Fatal("bad backbone accepted")
	}
}

// TestTCPRoles runs the full pipeline with every role on its own TCP
// socket — the exact wire path of a multi-process deployment.
func TestTCPRoles(t *testing.T) {
	cfg := smallConfig()

	probe, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	roles := probe.RoleNames()

	nets := make(map[string]*TCPNetwork, len(roles))
	peers := make(map[string]string, len(roles))
	for _, role := range roles {
		n, err := NewTCPNetwork(role, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nets[role] = n
		peers[role] = n.Addr()
	}
	for _, role := range roles {
		nets[role].SetPeers(peers)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var reports []DeviceReport
	errc := make(chan error, len(roles))
	for _, role := range roles {
		role := role
		sys, err := NewSystemWithNetwork(cfg, nets[role])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sys.RunRole(ctx, role)
			if err != nil {
				errc <- err
				cancel()
				return
			}
			if res != nil {
				mu.Lock()
				reports = append(reports, res.Reports...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// The edges' reports, merged in DeviceID order, are the run's.
	sort.Slice(reports, func(i, j int) bool { return reports[i].DeviceID < reports[j].DeviceID })
	if len(reports) != 2 || reports[0].DeviceID != 0 || reports[1].DeviceID != 1 {
		t.Fatalf("edges reported %+v", reports)
	}
}

// TestOneSerializationFormat: internal/wire is the one serializer —
// messages and snapshots alike. No program file outside bench/ may
// import encoding/gob; tests may, as a yardstick.
func TestOneSerializationFormat(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || path == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/gob" {
				t.Errorf("%s imports encoding/gob: serialize through internal/wire", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
