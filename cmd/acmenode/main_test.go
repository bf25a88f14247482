package main

import (
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMultiProcessPipeline builds the acmenode binary and runs the full
// ACME pipeline as four separate OS processes talking over TCP — the
// deployment mode of the paper's testbed.
func TestMultiProcessPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "acmenode")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	roles := []string{"cloud", "edge-0", "device-0", "device-1"}
	addrs := reservePorts(t, roles)
	var peerList []string
	for role, addr := range addrs {
		peerList = append(peerList, role+"="+addr)
	}
	peers := strings.Join(peerList, ",")

	type proc struct {
		role string
		cmd  *exec.Cmd
		out  *strings.Builder
	}
	var procs []*proc
	for _, role := range roles {
		out := &strings.Builder{}
		cmd := exec.Command(bin,
			"-role", role,
			"-listen", addrs[role],
			"-peers", peers,
			"-edges", "1",
			"-devices", "2",
			"-seed", "1",
			"-timeout", "3m",
		)
		cmd.Stdout = out
		cmd.Stderr = out
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", role, err)
		}
		procs = append(procs, &proc{role: role, cmd: cmd, out: out})
		time.Sleep(50 * time.Millisecond) // stagger listener startup
	}

	deadline := time.After(4 * time.Minute)
	done := make(chan *proc, len(procs))
	for _, p := range procs {
		p := p
		go func() {
			p.cmd.Wait()
			done <- p
		}()
	}
	for range procs {
		select {
		case p := <-done:
			if !p.cmd.ProcessState.Success() {
				t.Fatalf("%s failed:\n%s", p.role, p.out.String())
			}
		case <-deadline:
			for _, p := range procs {
				p.cmd.Process.Kill()
			}
			t.Fatal("multi-process pipeline timed out")
		}
	}

	// The edge must have printed both device reports.
	var edgeOut string
	for _, p := range procs {
		if p.role == "edge-0" {
			edgeOut = p.out.String()
		}
	}
	for _, want := range []string{"device-0 (edge-0)", "device-1 (edge-0)", "mean final accuracy"} {
		if !strings.Contains(edgeOut, want) {
			t.Fatalf("edge-0 output missing %q:\n%s", want, edgeOut)
		}
	}
}

// reservePorts picks a free loopback port for each role, for its child
// process to bind, from the lower half of the ports below the kernel's
// ephemeral range. The kernel hands those to no ":0" listener and no
// outgoing connection, so between the check here and the child's bind
// only a process that names the very port could take it; a port from
// ":0" could go to any other test that listens or dials in between.
func reservePorts(t *testing.T, roles []string) map[string]string {
	t.Helper()
	low := 32768 // Linux's default floor; macOS and Windows start at 49152
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if n, err := strconv.Atoi(f[0]); err == nil && n > 2048 {
				low = n
			}
		}
	}
	addrs := make(map[string]string, len(roles))
	for _, role := range roles {
		for try := 0; ; try++ {
			if try == 100 {
				t.Fatalf("no free loopback port in [%d, %d)", low/2, low)
			}
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", low/2+rand.IntN(low-low/2)))
			if err != nil {
				continue // taken
			}
			// Held until every role has its own port.
			defer ln.Close()
			addrs[role] = ln.Addr().String()
			break
		}
	}
	return addrs
}

// TestFlagValidation checks the CLI rejects incomplete flags.
func TestFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process")
	}
	bin := filepath.Join(t.TempDir(), "acmenode")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-role", "cloud")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("missing flags accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "required") {
		t.Fatalf("unhelpful error:\n%s", out)
	}
}
