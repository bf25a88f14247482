package main

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
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
	addrs := make(map[string]string, len(roles))
	for _, role := range roles {
		addrs[role] = reservePort(t)
	}
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

// reservePort grabs an ephemeral port and releases it for the child
// process to bind. A small race window is acceptable in a test.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
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
