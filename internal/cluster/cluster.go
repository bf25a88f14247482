// Package cluster models the device fleet and its partitioning onto
// edge servers: the system tuple (C, S, N) of §II-A with devices grouped
// by similarity in performance and storage capability.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"acme/internal/energy"
)

// Device is the attribute tuple (Gn, Cn) of one device plus its energy
// profile.
type Device struct {
	ID      int
	VCPUs   int
	GPU     float64 // Gn: GPU capacity (watts of base draw)
	Storage float64 // Cn: maximum storable parameter count
	Profile energy.Profile

	name string // Name, formatted once by GenerateFleet
}

// Name returns the device's transport node name.
func (d Device) Name() string {
	if d.name != "" {
		return d.name
	}
	return fmt.Sprintf("device-%d", d.ID)
}

// FleetSpec generates a synthetic heterogeneous fleet mirroring the
// paper's setup: clusters of devices with similar vCPU (3–7) and storage
// (200–400 MB ≈ 50–100 M float32 parameters) settings.
type FleetSpec struct {
	Clusters          int
	DevicesPerCluster int
}

// paramsPerMB is the float32 parameters one MB holds.
const paramsPerMB = 1024.0 * 1024 / 4

// storageLevels are the per-cluster-position storage budgets in
// parameters: the paper's ladder of 200, 250, 300, 350 and 400 MB.
var storageLevels = [...]float64{200 * paramsPerMB, 250 * paramsPerMB, 300 * paramsPerMB, 350 * paramsPerMB, 400 * paramsPerMB}

// profileEpochs is k, the training epochs of every device's energy
// profile (Eq. 1).
const profileEpochs = 3

// GenerateFleet builds the device list. Devices within a cluster share
// similar capability; clusters differ.
func GenerateFleet(spec FleetSpec, rng *rand.Rand) []Device {
	if spec.Clusters <= 0 {
		spec.Clusters = 10
	}
	if spec.DevicesPerCluster <= 0 {
		spec.DevicesPerCluster = 5
	}
	devices := make([]Device, 0, spec.Clusters*spec.DevicesPerCluster)
	id := 0
	for c := 0; c < spec.Clusters; c++ {
		baseVCPU := 3 + c%5             // 3..7 like the paper
		baseGPU := 40 + 15*float64(c%5) // watts, scales with capability
		for d := 0; d < spec.DevicesPerCluster; d++ {
			gpu := baseGPU * (0.9 + 0.2*rng.Float64())
			lat := (2.0 - 0.15*float64(baseVCPU)) * (0.9 + 0.2*rng.Float64())
			dev := Device{
				ID:      id,
				VCPUs:   baseVCPU,
				GPU:     gpu,
				Storage: storageLevels[d%len(storageLevels)],
				Profile: energy.NewProfile(gpu, lat, 9, profileEpochs),
			}
			dev.name = dev.Name()
			devices = append(devices, dev)
			id++
		}
	}
	return devices
}

// Partition groups devices into k clusters by similarity of (vCPU,
// storage) using k-means with deterministic farthest-point seeding.
// Returns cluster → member indices (into devices), each non-empty,
// sorted by device index.
func Partition(devices []Device, k int, rng *rand.Rand) ([][]int, error) {
	if k <= 0 || k > len(devices) {
		return nil, fmt.Errorf("cluster: k=%d with %d devices", k, len(devices))
	}
	// Normalize features to [0,1].
	pts := make([][2]float64, len(devices))
	minV, maxV := math.Inf(1), math.Inf(-1)
	minS, maxS := math.Inf(1), math.Inf(-1)
	for _, d := range devices {
		minV = math.Min(minV, float64(d.VCPUs))
		maxV = math.Max(maxV, float64(d.VCPUs))
		minS = math.Min(minS, d.Storage)
		maxS = math.Max(maxS, d.Storage)
	}
	span := func(lo, hi float64) float64 {
		if hi-lo <= 0 {
			return 1
		}
		return hi - lo
	}
	for i, d := range devices {
		pts[i] = [2]float64{
			(float64(d.VCPUs) - minV) / span(minV, maxV),
			(d.Storage - minS) / span(minS, maxS),
		}
	}

	centers := seedCenters(pts, k)
	assign := make([]int, len(pts))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				d := sqDist(p, ctr)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centers.
		var sum [][2]float64 = make([][2]float64, k)
		count := make([]int, k)
		for i, p := range pts {
			c := assign[i]
			sum[c][0] += p[0]
			sum[c][1] += p[1]
			count[c]++
		}
		for c := range centers {
			if count[c] == 0 {
				// Re-seed an empty cluster at a random point.
				centers[c] = pts[rng.Intn(len(pts))]
				continue
			}
			centers[c] = [2]float64{sum[c][0] / float64(count[c]), sum[c][1] / float64(count[c])}
		}
	}

	groups := make([][]int, k)
	for i, c := range assign {
		groups[c] = append(groups[c], i)
	}
	// Repair empty clusters by stealing from the largest.
	for c := range groups {
		for len(groups[c]) == 0 {
			largest := 0
			for g := range groups {
				if len(groups[g]) > len(groups[largest]) {
					largest = g
				}
			}
			if len(groups[largest]) <= 1 {
				return nil, fmt.Errorf("cluster: cannot fill empty cluster %d", c)
			}
			groups[c] = append(groups[c], groups[largest][len(groups[largest])-1])
			groups[largest] = groups[largest][:len(groups[largest])-1]
		}
	}
	for c := range groups {
		sort.Ints(groups[c])
	}
	return groups, nil
}

// seedCenters picks k starting centers by farthest-point traversal from
// the first point — deterministic given the input order.
func seedCenters(pts [][2]float64, k int) [][2]float64 {
	centers := make([][2]float64, 0, k)
	centers = append(centers, pts[0])
	for len(centers) < k {
		bestIdx, bestD := 0, -1.0
		for i, p := range pts {
			d := math.Inf(1)
			for _, c := range centers {
				d = math.Min(d, sqDist(p, c))
			}
			if d > bestD {
				bestIdx, bestD = i, d
			}
		}
		centers = append(centers, pts[bestIdx])
	}
	return centers
}

func sqDist(a, b [2]float64) float64 {
	dx := a[0] - b[0]
	dy := a[1] - b[1]
	return dx*dx + dy*dy
}
