// TCP cluster: run every ACME role over real localhost sockets — the
// same wire path cmd/acmenode uses across machines — inside one
// process. Each role gets its own TCP listener and its own System
// instance built from the identical config, exactly as separate OS
// processes would.
//
// The sockets are session-supervised: each node keeps one link per
// peer (the dialer announces itself with a JOIN control frame and the
// acceptor multiplexes replies onto the same connection), a dead
// connection is redialed with capped exponential backoff inside Send,
// and Close announces a LEAVE. The run below also enables the
// straggler cutoff: with -quorum/-cutoff semantics an edge combines a
// round once half its cluster has uploaded and the deadline passed,
// instead of pacing at the slowest device — on this healthy loopback
// cluster the generous deadline never fires, so the results match an
// uncut run exactly.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"acme"
)

func main() {
	cfg := acme.DefaultConfig()
	cfg.EdgeServers = 1
	cfg.Fleet.Spec.Clusters = 1
	cfg.Fleet.Spec.DevicesPerCluster = 2
	cfg.SamplesPerDevice = 80
	cfg.Phase2Rounds = 1
	// Entropy coding is sender-side: receivers detect entropy frames on
	// the wire, so every process decodes correctly whether or not its
	// own config sets this.
	cfg.Wire.Entropy = true
	cfg.Wire.Quantization = acme.QuantLossless
	// Churn tolerance: combine once 50% of a cluster uploaded and 5s
	// passed — far above a healthy round, so results are untouched, but
	// a wedged device could no longer stall the loop forever.
	cfg.Straggler.Quorum = 0.5
	cfg.Straggler.Deadline = 5 * time.Second

	// Build one system just to enumerate the roles.
	probe, err := acme.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	roles := probe.RoleNames()

	// Start one TCP listener per role on an ephemeral port, then share
	// the full peer table.
	nets := make(map[string]*acme.TCPNetwork, len(roles))
	peers := make(map[string]string, len(roles))
	for _, role := range roles {
		n, err := acme.NewTCPNetwork(role, "127.0.0.1:0", nil)
		if err != nil {
			log.Fatal(err)
		}
		nets[role] = n
		peers[role] = n.Addr()
		defer n.Close()
	}
	// Late-bind the peer tables now that every port is known.
	for _, role := range roles {
		nets[role].SetPeers(peers)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// Each edge role returns its cluster's reports.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var reports []acme.DeviceReport
	errs := make(chan error, len(roles))
	for _, role := range roles {
		role := role
		sys, err := acme.NewSystemWithNetwork(cfg, nets[role])
		if err != nil {
			log.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := sys.RunRole(ctx, role)
			if err != nil {
				errs <- fmt.Errorf("%s: %w", role, err)
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
	close(errs)
	for err := range errs {
		log.Fatal(err)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].DeviceID < reports[j].DeviceID })

	fmt.Println("TCP cluster run complete — reports received over sockets:")
	for _, r := range reports {
		fmt.Printf("  device-%d: accuracy %.3f → %.3f\n", r.DeviceID, r.AccuracyCoarse, r.AccuracyFinal)
	}
	// Each role's TCP node counts the traffic it sent; summing over
	// every role gives the cluster-wide wire volume.
	var wireBytes, rawBytes, msgs int64
	for _, role := range roles {
		st := nets[role].Stats()
		wireBytes += st.TotalBytes()
		rawBytes += st.TotalRawBytes()
		msgs += st.TotalMessages()
	}
	fmt.Printf("cluster wire traffic: %d messages, %d wire bytes, %d in-memory bytes (codec ratio %.2f)\n",
		msgs, wireBytes, rawBytes, float64(rawBytes)/float64(wireBytes))
}
