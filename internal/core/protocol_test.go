package core

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"acme/internal/transport"
	"acme/internal/wire"
)

var updateProtocol = flag.Bool("update", false, "rewrite testdata/protocol.golden from the protocol tables")

const protocolGolden = "testdata/protocol.golden"

// protocolColumn is one column of the tables and the probes that stand
// for it: one message per payload kind and per control verb, and, for
// the rest column, a frame of a kind no build knows and a control frame
// whose record does not decode.
type protocolColumn struct {
	name   string
	k      key
	probes func(from, to string, dev, round int) []transport.Message
}

// payloadKinds are every transport.Kind but control, read off the
// stringer so a kind added later lands in the tables' columns.
func payloadKinds(t *testing.T) []transport.Kind {
	var ks []transport.Kind
	for k := transport.Kind(1); !strings.HasPrefix(k.String(), "Kind("); k++ {
		if key(k) >= controlKeys {
			t.Fatalf("kind %v does not fit below the control verbs' columns (controlKeys = %d)", k, controlKeys)
		}
		if k != transport.KindControl {
			ks = append(ks, k)
		}
	}
	return ks
}

// controlVerbs are every valid wire.ControlType.
func controlVerbs() []wire.ControlType {
	var vs []wire.ControlType
	for v := wire.ControlType(1); v.Valid(); v++ {
		vs = append(vs, v)
	}
	return vs
}

// leasedProbe is a frame of kind k whose payload decodes as nothing, on
// a pooled buffer, so a wait that drops it without releasing it shows
// in wire.Leased.
func leasedProbe(k transport.Kind, from, to string, round int) transport.Message {
	buf := wire.Lease(3)
	buf.B = append(buf.B, 0xff, 0xfe, 0xfd)
	return transport.Message{Kind: k, From: from, To: to, Round: round}.WithLease(buf)
}

func controlProbe(v wire.ControlType, from, to string, dev, round int) transport.Message {
	payload, err := wire.EncodeControl(wire.ControlRecord{Type: v, Node: from, Device: dev, Round: round})
	if err != nil {
		panic(err)
	}
	return transport.Message{Kind: transport.KindControl, From: from, To: to, Round: round, Payload: payload}
}

func protocolColumns(t *testing.T) []protocolColumn {
	var cols []protocolColumn
	for _, k := range payloadKinds(t) {
		cols = append(cols, protocolColumn{k.String(), key(k), func(from, to string, _, round int) []transport.Message {
			return []transport.Message{leasedProbe(k, from, to, round)}
		}})
	}
	for _, v := range controlVerbs() {
		cols = append(cols, protocolColumn{v.String(), controlKeys + key(v), func(from, to string, dev, round int) []transport.Message {
			return []transport.Message{controlProbe(v, from, to, dev, round)}
		}})
	}
	return append(cols, protocolColumn{"(other)", 0, func(from, to string, _, round int) []transport.Message {
		return []transport.Message{
			leasedProbe(transport.Kind(controlKeys-2), from, to, round),
			{Kind: transport.KindControl, From: from, To: to, Round: round, Payload: []byte{0xff}},
		}
	}})
}

// protocolPhase is one row of a role's table, named by its field.
type protocolPhase struct {
	role, phase string
	row         *row
}

// protocolPhases lists every role's table, phase by phase in field
// order; it fails when a table's fields are not exactly these.
func protocolPhases(t *testing.T) []protocolPhase {
	phases := []protocolPhase{
		{"cloud", "stats", &cloudProtocol.stats},
		{"edge", "setup", &edgeProtocol.setup},
		{"edge", "backbone", &edgeProtocol.backbone},
		{"edge", "round", &edgeProtocol.round},
		{"edge", "reports", &edgeProtocol.reports},
		{"device", "model", &deviceProtocol.model},
		{"device", "resync", &deviceProtocol.resync},
		{"device", "invite", &deviceProtocol.invite},
		{"device", "downlink", &deviceProtocol.downlink},
		{"device", "grace", &deviceProtocol.grace},
	}
	var fields []string
	for _, tb := range []any{cloudProtocol, edgeProtocol, deviceProtocol} {
		typ := reflect.TypeOf(tb)
		for i := 0; i < typ.NumField(); i++ {
			fields = append(fields, typ.Field(i).Name)
		}
	}
	for i, ph := range phases {
		if i >= len(fields) || fields[i] != ph.phase {
			t.Fatalf("the tables' phases are %v; list them all in protocolPhases", fields)
		}
	}
	if len(fields) != len(phases) {
		t.Fatalf("the tables' phases are %v; list them all in protocolPhases", fields)
	}
	return phases
}

var verdictNames = [...]string{refuse: "refuse", drop: "drop", handle: "handle"}

// renderProtocol writes every role's table: one line per message key,
// one column per phase, and each phase's label below.
func renderProtocol(t *testing.T) []byte {
	var b bytes.Buffer
	b.WriteString("# The protocol tables of internal/core/protocol.go: what each wait of each\n" +
		"# role does with every message. Columns are a role's phases (its waits),\n" +
		"# lines the message keys (payload kind, control verb, and (other): a kind\n" +
		"# no build knows or an undecodable control record). handle cells may\n" +
		"# still drop or refuse on state the table cannot see. Regenerate with\n" +
		"#   go test -run TestProtocolTables ./internal/core -update\n")
	phases := protocolPhases(t)
	for _, role := range []string{"cloud", "edge", "device"} {
		var rows []protocolPhase
		line := fmt.Sprintf("%-22s", "key")
		for _, ph := range phases {
			if ph.role == role {
				rows = append(rows, ph)
				line += fmt.Sprintf(" %-9s", ph.phase)
			}
		}
		fmt.Fprintf(&b, "\n%s\n%s\n", role, strings.TrimRight(line, " "))
		for _, col := range protocolColumns(t) {
			line := fmt.Sprintf("%-22s", col.name)
			for _, ph := range rows {
				line += fmt.Sprintf(" %-9s", verdictNames[ph.row.verdict(col.k)])
			}
			b.WriteString(strings.TrimRight(line, " ") + "\n")
		}
		for _, ph := range rows {
			fmt.Fprintf(&b, "  %s: refusals say \"during %s\"\n", ph.phase, ph.row.label(7))
		}
	}
	return b.Bytes()
}

// protocolWait is one phase's real wait over a memory network, ready to
// be driven: the waiting node, the sender whose messages its handler
// accepts, the round it serves, the message that ends it once a probe
// was let through (a refusal where the row refuses by default, else a
// message it handles) and how that end reads, and the wait itself.
type protocolWait struct {
	node, from string
	round      int
	end        transport.Message
	ended      func(error) bool
	run        func(ctx context.Context) error
}

// protocolWaitFor builds phase ph's wait on sys: edge 0, its first
// member, and the device's loop waits at round 1 with round 0 played.
func protocolWaitFor(t *testing.T, ph *row, sys *System, mem *transport.Memory, pkg HeaderPackage) protocolWait {
	edge, dev := edgeName(0), sys.devices[sys.clusters[0][0]]
	refusing := func(node, from string, round int, run func(context.Context) error) protocolWait {
		return protocolWait{node, from, round, leasedProbe(transport.KindRawData, "stranger", node, round), func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "unexpected raw-data from stranger")
		}, run}
	}
	edgeSes := transport.NewSession(edge, mem)
	switch ph {
	case &cloudProtocol.stats:
		return refusing("cloud", edge, 0, sys.runCloud)
	case &edgeProtocol.setup:
		return refusing(edge, dev.Name(), 0, func(ctx context.Context) error {
			_, err := sys.edgeGatherSetup(ctx, edgeSes, 0)
			return err
		})
	case &edgeProtocol.backbone:
		return refusing(edge, "cloud", 0, func(ctx context.Context) error {
			_, _, err := sys.edgeReceiveBackbone(ctx, edgeSes)
			return err
		})
	case &edgeProtocol.round:
		return refusing(edge, dev.Name(), 1, func(ctx context.Context) error {
			n := len(sys.clusters[0])
			sim := make([][]float64, n)
			for i := range sim {
				sim[i] = make([]float64, n)
				sim[i][i] = 1
			}
			r := &edgeRound{edgeState: sys.newEdgeState(0, edgeSes, HeaderPackage{}, sim), t: 1, folded: make([]bool, n)}
			defer r.rows.Release()
			return r.gather(ctx, r.invite())
		})
	case &edgeProtocol.reports:
		return refusing(edge, dev.Name(), 0, func(ctx context.Context) error {
			st := sys.newEdgeState(0, edgeSes, HeaderPackage{}, nil)
			_, err := awaitReports(ctx, edgeSes, st.posByName, st.idByPos, &st.loopState)
			return err
		})
	case &deviceProtocol.model:
		return refusing(dev.Name(), edge, 0, func(ctx context.Context) error {
			return sys.runDevice(ctx, 0, sys.clusters[0][0])
		})
	case &deviceProtocol.resync:
		return protocolWait{dev.Name(), edge, 1, leasedProbe(transport.KindHeader, edge, dev.Name(), 1),
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "decode header") },
			func(ctx context.Context) error {
				_, _, _, err := sys.resync(ctx, transport.NewSession(dev.Name(), mem), edge, dev.ID, true)
				return err
			}}
	}
	d := newExchangeDevice(t, pkg, WireOptions{}, int64(dev.ID)).d
	d.s.Net, d.ses, d.last = mem, transport.NewSession(dev.Name(), mem), 0
	w := refusing(dev.Name(), edge, 1, func(ctx context.Context) error {
		_, err := d.await(ctx, ph, 1)
		return err
	})
	if ph.verdict(0) == drop {
		w.end.Release()
		w.end = controlProbe(wire.ControlMemberGone, edge, dev.Name(), dev.ID, 1)
		w.ended = func(err error) bool { return errors.Is(err, errEvicted) }
	}
	return w
}

// TestProtocolTables renders every role's table to testdata/
// protocol.golden, then drives one message of every key into every
// phase's real wait over a memory transport, from the sender the
// phase's handler accepts and stamped with the round it serves, and
// checks the cell: a refuse cell fails the wait with the refusal naming
// the sender, the key and the phase; a drop cell lets the wait run on to
// the message that ends it, and the frame goes back to the pool; a
// handle cell reaches the phase's handler (route hands it over, or, for
// a kind a gather counts, the handler's decode fails).
func TestProtocolTables(t *testing.T) {
	got := renderProtocol(t)
	if *updateProtocol {
		if err := os.WriteFile(protocolGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(protocolGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the protocol tables differ from %s; rerun with -update if the change is meant:\n%s", protocolGolden, got)
	}

	_, _, pkg := receivedFixture(t)
	seen := map[key]bool{}
	reached = func(_ *row, k key) { seen[k] = true }
	defer func() { reached = nil }()
	base := wire.Leased()
	for _, ph := range protocolPhases(t) {
		for _, col := range protocolColumns(t) {
			probes := col.probes("", "", 0, 0)
			for _, msg := range probes {
				msg.Release()
			}
			for j := range probes {
				cell := fmt.Sprintf("%s.%s × %s (probe %d)", ph.role, ph.phase, col.name, j)
				clear(seen)
				ranOn, err := driveCell(t, ph.row, col, j, pkg)
				switch ph.row.verdict(col.k) {
				case refuse:
					if err == nil || ranOn || seen[col.k] {
						t.Errorf("%s: refuse cell, got %v (handler reached: %v)", cell, err, seen[col.k])
					}
				case drop:
					if !ranOn || seen[col.k] {
						t.Errorf("%s: drop cell, got %v (handler reached: %v)", cell, err, seen[col.k])
					}
				case handle:
					if !seen[col.k] && (err == nil || !strings.Contains(err.Error(), "decode "+col.name)) {
						t.Errorf("%s: handle cell never reached its handler: %v", cell, err)
					}
				}
				if n := wire.Leased(); n != base {
					t.Fatalf("%s: %d frames leased after the wait, want %d", cell, n, base)
				}
			}
		}
	}
}

// driveCell runs phase ph's wait on a fresh system with probe j of col,
// then the phase's end, in its inbox. It returns whether the wait ran on
// past the probe to the end, and how it ended; a refusal of the probe
// must name its sender, its key (a kind or verb, or, for the rest
// column, a decode error) and the phase.
func driveCell(t *testing.T, ph *row, col protocolColumn, j int, pkg HeaderPackage) (ranOn bool, err error) {
	t.Helper()
	mem := transport.NewMemory()
	defer mem.Close()
	sys, err := NewSystemWithNetwork(tinyConfig(), mem)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sys.RoleNames() {
		mem.Register(n, 0)
	}
	w := protocolWaitFor(t, ph, sys, mem, pkg)
	probes := col.probes(w.from, w.node, sys.devices[sys.clusters[0][0]].ID, w.round)
	probe := probes[j]
	for i, msg := range probes {
		if i != j {
			msg.Release()
		}
	}
	for _, msg := range []transport.Message{probe, w.end} {
		if err := mem.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err = w.run(ctx)
	if w.ended(err) {
		return true, err
	}
	if err != nil && ph.verdict(col.k) == refuse {
		what := col.name
		if col.k >= controlKeys {
			what += " control"
		}
		refusal := fmt.Sprintf("unexpected %s from %s during %s", what, w.from, ph.label(w.round))
		if col.k == 0 {
			refusal = fmt.Sprintf("from %s", w.from)
		}
		if msg := err.Error(); !strings.Contains(msg, refusal) || !strings.Contains(msg, ph.label(w.round)) {
			t.Errorf("%v: refusal does not name the sender, the key and the phase (%q)", err, refusal)
		}
	}
	return false, err
}

// TestReadmeProtocolTables fails when README's "Protocol messages"
// tables leave out a transport.Kind or a wire.ControlType (names are
// compared case-insensitively), or stop pointing to the golden
// rendering of the protocol tables.
func TestReadmeProtocolTables(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "### Protocol messages\n")
	if !ok {
		t.Fatal(`README has no "### Protocol messages" section`)
	}
	section, _, _ = strings.Cut(section, "\n### ")
	listed := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if name, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ = strings.Cut(name, "`")
			listed[strings.ToLower(name)] = true
		}
	}
	var want []string
	for k := transport.Kind(1); !strings.HasPrefix(k.String(), "Kind("); k++ {
		want = append(want, k.String())
	}
	for _, v := range controlVerbs() {
		want = append(want, v.String())
	}
	for _, name := range want {
		if !listed[strings.ToLower(name)] {
			t.Errorf("README's protocol tables leave out %q", name)
		}
	}
	if !strings.Contains(section, "internal/core/testdata/protocol.golden") {
		t.Errorf("README's protocol section does not point to %s", protocolGolden)
	}
}
