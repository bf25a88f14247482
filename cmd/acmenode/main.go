// Command acmenode runs one ACME role — cloud, edge-N or device-N — as
// its own OS process over TCP. Every process must be started with
// identical topology flags so that the deterministically generated
// fleet and data shards agree. Each edge process prints its cluster's
// device reports.
//
// Example 1-edge, 2-device deployment on one host:
//
//	acmenode -role cloud    -listen :7001 -peers cloud=:7001,edge-0=:7002,device-0=:7003,device-1=:7004 &
//	acmenode -role edge-0   -listen :7002 -peers ... &
//	acmenode -role device-0 -listen :7003 -peers ... &
//	acmenode -role device-1 -listen :7004 -peers ...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"acme"
	"acme/internal/chaos"
	"acme/internal/core"
	"acme/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "acmenode:", err)
		os.Exit(1)
	}
}

func run() error {
	role := flag.String("role", "", "role to run: cloud, edge-N, device-N")
	listen := flag.String("listen", "", "listen address for this node")
	peers := flag.String("peers", "", "comma-separated name=addr peer list (must include every role)")
	// The run flags are the ones acmesim takes, bound once next to
	// Config; only the fleet shape defaults differ (1 edge × 2 devices).
	cfg := acme.DefaultConfig()
	cfg.EdgeServers = 1
	cfg.Fleet.Spec.DevicesPerCluster = 2
	apply := acme.BindFlags(flag.CommandLine, &cfg)
	timeout := flag.Duration("timeout", 10*time.Minute, "run timeout")
	rejoin := flag.Bool("rejoin", false, "device roles only: rejoin a run already in progress via a dense resync instead of the setup handshake")
	restore := flag.Bool("restore", false, "edge and device roles: restore this role from its -ckpt-path snapshot and re-enter the run in progress")
	flag.Parse()

	if *role == "" || *listen == "" || *peers == "" {
		return fmt.Errorf("-role, -listen and -peers are required")
	}
	peerMap := make(map[string]string)
	for _, kv := range strings.Split(*peers, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return fmt.Errorf("bad peer entry %q", kv)
		}
		peerMap[parts[0]] = parts[1]
	}
	if err := apply(); err != nil {
		return err
	}

	tcpNet, err := transport.NewTCP(*role, *listen, peerMap)
	if err != nil {
		return err
	}
	var net transport.Transport = tcpNet
	if link := core.ChaosLinks[cfg.Chaos]; link != (chaos.Profile{}) {
		// Per-node link chaos over the real TCP transport: this node's
		// sends are delayed per the seeded schedule; nodes without the
		// flag interoperate untouched. Config.Chaos itself wraps the
		// in-memory transport, which this process never uses, so it is
		// cleared once the profile is taken.
		net = chaos.New(tcpNet, chaos.Options{Seed: cfg.Seed, Default: link})
		cfg.Chaos = ""
	}
	defer net.Close()

	sys, err := core.NewSystemWithNetwork(cfg, net)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	fmt.Printf("acmenode: role %s listening on %s\n", *role, tcpNet.Addr())
	var res *core.Result
	if *restore {
		// A crashed role comes back from its durable snapshot: the edge
		// rolls the session forward from the checkpointed round and
		// broadcasts SESSION-RESUME; a device re-enters warm.
		if res, err = sys.ResumeRole(ctx, *role); err != nil {
			return fmt.Errorf("restore %s: %w", *role, err)
		}
	} else if *rejoin {
		// A churned device re-enters the loop in progress: it announces
		// a RESYNC-REQUEST and receives a dense re-seed from its edge.
		if err := sys.RejoinRole(ctx, *role); err != nil {
			return fmt.Errorf("rejoin %s: %w", *role, err)
		}
	} else if res, err = sys.RunRole(ctx, *role); err != nil {
		return fmt.Errorf("role %s: %w", *role, err)
	}
	if res != nil {
		for _, r := range res.Reports {
			fmt.Printf("device-%d (edge-%d): w=%.2f d=%d acc %.3f → %.3f\n",
				r.DeviceID, r.EdgeID, r.Width, r.Depth, r.AccuracyCoarse, r.AccuracyFinal)
		}
		fmt.Printf("mean final accuracy: %.3f\n", res.MeanAccuracyFinal())
	}
	// Per-node traffic in both directions: a TCP node's Stats cover
	// what this process sent and what arrived on its own sockets.
	st := net.Stats()
	fmt.Printf("acmenode: %s traffic: sent %d msgs / %d B, received %d msgs / %d B\n",
		*role, st.TotalMessages(), st.TotalBytes(), st.TotalReceivedMessages(), st.TotalReceivedBytes())
	sentByKind := st.BytesByKind()
	recvByKind := st.ReceivedBytesByKind()
	for _, k := range st.Kinds() {
		fmt.Printf("acmenode: %s   %-16s sent %9d B  recv %9d B\n", *role, k, sentByKind[k], recvByKind[k])
	}
	// Direction summary of the Phase 2-2 importance exchange: the
	// device→edge uplink against the symmetric edge→device downlink.
	upSent, upRecv := st.BytesForKinds(transport.KindImportanceSet, transport.KindImportanceDelta)
	downSent, downRecv := st.BytesForKinds(transport.KindPersonalizedSet, transport.KindImportanceDownDelta)
	if upSent+upRecv+downSent+downRecv > 0 {
		fmt.Printf("acmenode: %s importance exchange: uplink sent %d B / recv %d B, downlink sent %d B / recv %d B\n",
			*role, upSent, upRecv, downSent, downRecv)
	}
	fmt.Printf("acmenode: role %s done\n", *role)
	return nil
}
