package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateFleetShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	devs := GenerateFleet(FleetSpec{Clusters: 4, DevicesPerCluster: 3}, rng)
	if len(devs) != 12 {
		t.Fatalf("got %d devices", len(devs))
	}
	seen := map[int]bool{}
	for _, d := range devs {
		if seen[d.ID] {
			t.Fatalf("duplicate device id %d", d.ID)
		}
		seen[d.ID] = true
		if d.VCPUs < 3 || d.VCPUs > 7 {
			t.Fatalf("vCPU %d outside the paper's 3..7 range", d.VCPUs)
		}
		if d.Storage <= 0 || d.GPU <= 0 {
			t.Fatalf("bad device %+v", d)
		}
		if p := d.Profile; p.GPU <= 0 || p.BaseLatency <= 0 || p.Epochs <= 0 {
			t.Fatalf("device %d: non-positive profile fields %+v", d.ID, p)
		}
	}
}

func TestPartitionCoversAllDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	devs := GenerateFleet(FleetSpec{Clusters: 5, DevicesPerCluster: 4}, rng)
	groups, err := Partition(devs, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 5 {
		t.Fatalf("got %d groups", len(groups))
	}
	seen := map[int]bool{}
	for _, g := range groups {
		if len(g) == 0 {
			t.Fatal("empty cluster")
		}
		for _, i := range g {
			if seen[i] {
				t.Fatalf("device %d in two clusters", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != len(devs) {
		t.Fatalf("partition covers %d of %d devices", len(seen), len(devs))
	}
}

func TestPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		k := 1 + rng.Intn(n)
		devs := GenerateFleet(FleetSpec{Clusters: 3, DevicesPerCluster: (n + 2) / 3}, rng)
		devs = devs[:n]
		groups, err := Partition(devs, k, rng)
		if err != nil {
			return false
		}
		total := 0
		for _, g := range groups {
			if len(g) == 0 {
				return false
			}
			total += len(g)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionGroupsSimilarDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Two obviously distinct capability groups.
	var devs []Device
	for i := 0; i < 4; i++ {
		devs = append(devs, Device{ID: i, VCPUs: 3, Storage: 100, GPU: 40})
	}
	for i := 4; i < 8; i++ {
		devs = append(devs, Device{ID: i, VCPUs: 7, Storage: 1000, GPU: 100})
	}
	groups, err := Partition(devs, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		first := devs[g[0]].VCPUs
		for _, i := range g {
			if devs[i].VCPUs != first {
				t.Fatalf("mixed cluster: %v", g)
			}
		}
	}
}

func TestPartitionBadK(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	devs := GenerateFleet(FleetSpec{Clusters: 1, DevicesPerCluster: 2}, rng)
	if _, err := Partition(devs, 0, rng); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := Partition(devs, 5, rng); err == nil {
		t.Fatal("expected error for k > len(devices)")
	}
}

func TestDeviceName(t *testing.T) {
	d := Device{ID: 7}
	if d.Name() != "device-7" {
		t.Fatalf("name %q", d.Name())
	}
}
