// Command acmesim runs the full ACME pipeline in a single process over
// the in-memory network and prints a per-device summary plus measured
// protocol traffic.
//
//	acmesim -edges 2 -devices 3 -level C1 -agg wasserstein -seed 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"acme"
	"acme/internal/data"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acmesim:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := acme.DefaultConfig()
	apply := acme.BindFlags(flag.CommandLine, &cfg)
	level := flag.String("level", "C1", "data distribution: IID, C1, C2, C3")
	dataset := flag.String("dataset", "cifar100", "dataset family: cifar100, cars")
	agg := flag.String("agg", "wasserstein", "aggregation: wasserstein, js, average, alone")
	timeout := flag.Duration("timeout", 10*time.Minute, "run timeout")
	flag.IntVar(&cfg.Parallelism, "parallel", 0, "tensor-kernel goroutines (0 = GOMAXPROCS)")
	flag.Parse()

	switch *dataset {
	case "cifar100":
		// default spec
	case "cars":
		spec := data.CarsLike()
		cfg.Dataset = spec
		cfg.NumClasses = spec.NumClasses
		cfg.ClassesPerDevice = 24
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}
	if err := apply(); err != nil {
		return err
	}
	switch *level {
	case "IID":
		cfg.Level = acme.IID
	case "C1":
		cfg.Level = acme.C1
	case "C2":
		cfg.Level = acme.C2
	case "C3":
		cfg.Level = acme.C3
	default:
		return fmt.Errorf("unknown level %q", *level)
	}
	switch *agg {
	case "wasserstein":
		cfg.Aggregation = acme.AggregateWasserstein
	case "js":
		cfg.Aggregation = acme.AggregateJS
	case "average":
		cfg.Aggregation = acme.AggregateAverage
	case "alone":
		cfg.Aggregation = acme.AggregateAlone
	default:
		return fmt.Errorf("unknown aggregation %q", *agg)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	start := time.Now()
	res, err := acme.Run(ctx, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("ACME run: %d edges × %d devices, %s data, %s aggregation (%.1fs)\n\n",
		cfg.EdgeServers, cfg.Fleet.Spec.DevicesPerCluster, *level, *agg, elapsed.Seconds())

	fmt.Println("cluster backbone assignments:")
	edgeIDs := make([]int, 0, len(res.Assignments))
	for id := range res.Assignments {
		edgeIDs = append(edgeIDs, id)
	}
	sort.Ints(edgeIDs)
	for _, id := range edgeIDs {
		c := res.Assignments[id]
		fmt.Printf("  edge-%d: w=%.2f d=%d ζ=%.0f params, energy=%.1f J\n", id, c.W, c.D, c.Size, c.Energy)
	}

	fmt.Println("\nper-device results:")
	for _, r := range res.Reports {
		fmt.Printf("  device-%d (edge-%d): w=%.2f d=%d acc %.3f → %.3f, %d backbone + %d header params, %.1f J\n",
			r.DeviceID, r.EdgeID, r.Width, r.Depth, r.AccuracyCoarse, r.AccuracyFinal,
			r.BackboneParams, r.HeaderParams, r.Energy)
	}

	fmt.Printf("\nmean accuracy: coarse %.3f → final %.3f\n", res.MeanAccuracyCoarse(), res.MeanAccuracyFinal())
	fmt.Printf("uplink: ACME %d bytes vs centralized %d bytes (%.1f%%)\n",
		res.UploadBytes, res.CentralizedUploadBytes,
		100*float64(res.UploadBytes)/float64(res.CentralizedUploadBytes))
	if res.DownlinkBytes > 0 {
		// The symmetric counterpart of the downlink is the importance
		// uplink alone (what the edges received in the loop), not the
		// whole UploadBytes figure with stats and shard traffic in it.
		var importanceUp int64
		for _, rs := range res.Phase2Rounds {
			importanceUp += rs.UploadBytes
		}
		if importanceUp > 0 {
			fmt.Printf("downlink: %d personalized-set bytes (edge→device/device→edge importance ratio %.2f)\n",
				res.DownlinkBytes, float64(res.DownlinkBytes)/float64(importanceUp))
		} else {
			fmt.Printf("downlink: %d personalized-set bytes\n", res.DownlinkBytes)
		}
	}
	fmt.Printf("search space: ACME %.3g vs centralized %.3g architectures\n",
		res.SearchSpaceOurs, res.SearchSpaceCS)

	st := res.Stats
	fmt.Printf("\nwire traffic (binary codec, %s payloads): %d messages, %d wire bytes, %d in-memory bytes (ratio %.2f); received %d messages, %d bytes\n",
		cfg.Wire.Quantization, st.TotalMessages(), st.TotalBytes(), st.TotalRawBytes(), st.CompressionRatio(),
		st.TotalReceivedMessages(), st.TotalReceivedBytes())
	wireByKind := st.BytesByKind()
	rawByKind := st.RawBytesByKind()
	binByKind := st.BinaryBytesByKind()
	msgsByKind := st.MessagesByKind()
	recvByKind := st.ReceivedBytesByKind()
	recvMsgsByKind := st.ReceivedMessagesByKind()
	for _, k := range st.Kinds() {
		ratio := 0.0
		if wireByKind[k] > 0 {
			ratio = float64(rawByKind[k]) / float64(wireByKind[k])
		}
		line := fmt.Sprintf("  %-16s sent %4d msgs %9d B (raw %9d, ratio %.2f)",
			k, msgsByKind[k], wireByKind[k], rawByKind[k], ratio)
		if bin := binByKind[k]; bin > wireByKind[k] && wireByKind[k] > 0 {
			// The raw→binary→entropy chain per kind: binary is what the
			// plain codec would have sent, wire is what actually went out.
			line += fmt.Sprintf(" [binary %9d B, entropy ×%.3f]", bin, float64(bin)/float64(wireByKind[k]))
		}
		fmt.Printf("%s  recv %4d msgs %9d B\n", line, recvMsgsByKind[k], recvByKind[k])
	}

	if len(res.Phase2Rounds) > 0 {
		fmt.Println("\nphase 2-2 importance loop (per edge round):")
		var cutoffs, resyncs, staleDrops int
		var suspects, evictions []string
		for _, rs := range res.Phase2Rounds {
			fmt.Printf("  edge-%d round %d: up %7d B (%d dense + %d delta msgs), down %7d B (%d dense + %d delta msgs), gather %.2fms, aggregate %.2fms, downlink %.2fms\n",
				rs.EdgeID, rs.Round, rs.UploadBytes, rs.DenseMessages, rs.DeltaMessages,
				rs.DownlinkBytes, rs.DownDenseMessages, rs.DownDeltaMessages,
				float64(rs.GatherWallNS)/1e6, float64(rs.AggregateNS)/1e6, float64(rs.DownlinkNS)/1e6)
			cutoffs += rs.CutoffCount
			resyncs += rs.ResyncCount
			staleDrops += rs.StaleMessages
			for _, id := range rs.Suspects {
				suspects = append(suspects, fmt.Sprintf("device-%d@r%d", id, rs.Round))
			}
			for _, id := range rs.EvictedDevices {
				evictions = append(evictions, fmt.Sprintf("device-%d@r%d", id, rs.Round))
			}
		}
		if cutoffs+resyncs+staleDrops > 0 {
			fmt.Printf("  churn: %d straggler cutoffs, %d resyncs, %d stale uploads dropped\n",
				cutoffs, resyncs, staleDrops)
		}
		if len(suspects)+len(evictions) > 0 {
			fmt.Printf("  detection: flagged %v, evicted %v\n", suspects, evictions)
		}
	}

	if len(res.DeviceRounds) > 0 {
		var critNS, preNS int64
		var critBatches, preBatches int
		for _, dr := range res.DeviceRounds {
			critNS += dr.ImportanceNS
			preNS += dr.PrefoldNS
			critBatches += dr.Batches
			preBatches += dr.PrefoldBatches
		}
		n := float64(len(res.DeviceRounds))
		fmt.Printf("\ndevice importance compute: %.2fms/round critical path (%d batches), %.2fms/round overlapped with uploads (%d batches)\n",
			float64(critNS)/1e6/n, critBatches, float64(preNS)/1e6/n, preBatches)
	}
	return nil
}
