package acme

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"acme/internal/experiments"
)

// knobClasses is the closed list of reasons a Config field or shared
// run flag may stay on KNOBS.txt without a standing run that sets it.
// A knob that has neither a run nor one of these goes.
var knobClasses = map[string]string{
	"paper":       "the paper names it: γp, λ1 and λ2, U, the learning rates, the shared-data share",
	"deployment":  "the operator's choice, not the run's: where checkpoints go and whether they are fsynced",
	"trial":       "on ROADMAP item 3's trial queue, which keeps or deletes it by measurement",
	"bench-reads": "bench/ reads or writes it, so it stays while bench/ does",
}

// knobLine is one KNOBS.txt entry: `knob: why`. The knob is a Config
// leaf field as a dotted path (`Fleet.Spec.Clusters`) or a shared run
// flag (`-edges`). The why is a run, `kind/name`, or a class from
// knobClasses. A field's run is a standing run (the set `make traffic`
// runs) whose Config, or a value of the field's own type that the run
// builds, holds another value than DefaultConfig's; a flag's run is a
// run that sets what the flag writes.
var knobLine = regexp.MustCompile(`^(-[a-z-]+|[A-Z][A-Za-z0-9]*(?:\.[A-Z][A-Za-z0-9]*)*): (\S+)$`)

// checkKnobList returns every way list breaks KNOBS.txt's form: a line
// not of the `knob: why` shape, a knob missing from knobs (stale), a
// why that is neither a run in runs nor a class of knobClasses, a line
// out of C order or repeated, and a knob with no line.
func checkKnobList(list string, knobs, runs map[string]bool) []string {
	var bad []string
	listed := map[string]bool{}
	prev := ""
	for i, line := range strings.Split(strings.TrimSuffix(list, "\n"), "\n") {
		at := fmt.Sprintf("KNOBS.txt:%d", i+1)
		if i > 0 && line <= prev {
			bad = append(bad, fmt.Sprintf("%s: %q is not after %q (C order, no repeats)", at, line, prev))
		}
		prev = line
		m := knobLine.FindStringSubmatch(line)
		if m == nil {
			bad = append(bad, fmt.Sprintf("%s: %q is not `knob: why`", at, line))
			continue
		}
		knob, why := m[1], m[2]
		listed[knob] = true
		if !knobs[knob] {
			bad = append(bad, fmt.Sprintf("%s: %s is no Config field or shared flag", at, knob))
		}
		if strings.Contains(why, "/") {
			if !runs[why] {
				bad = append(bad, fmt.Sprintf("%s: %s names %s, which is no standing run", at, knob, why))
			}
		} else if _, ok := knobClasses[why]; !ok {
			bad = append(bad, fmt.Sprintf("%s: %s has class %q, not one of the closed list", at, knob, why))
		}
	}
	for knob := range knobs {
		if !listed[knob] {
			bad = append(bad, fmt.Sprintf("KNOBS.txt: %s has no line", knob))
		}
	}
	return bad
}

// knobs returns every Config leaf field, walked by reflection, and
// every flag BindFlags declares.
func knobs() map[string]bool {
	out := map[string]bool{}
	var walk func(prefix string, t reflect.Type)
	walk = func(prefix string, t reflect.Type) {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
			} else {
				out[prefix+f.Name] = true
			}
		}
	}
	walk("", reflect.TypeFor[Config]())
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	cfg := DefaultConfig()
	BindFlags(fs, &cfg)
	fs.VisitAll(func(f *flag.Flag) { out["-"+f.Name] = true })
	return out
}

// standingRuns names every run a KNOBS.txt line may cite, as kind/name:
// the BENCHMARK.json workloads (workload/), the trajectory's cells
// (cell/), acmebench's experiments (exp/) and the examples/ programs
// (examples/).
func standingRuns() (map[string]bool, error) {
	runs := map[string]bool{}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bench struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, err
	}
	for _, w := range bench.Workloads {
		runs["workload/"+w.Name] = true
	}
	for _, c := range experiments.Cells() {
		runs["cell/"+c.Name] = true
	}
	exps, err := acmebenchExperiments("cmd/acmebench/main.go")
	if err != nil {
		return nil, err
	}
	for _, id := range exps {
		runs["exp/"+id] = true
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if d.IsDir() {
			runs["examples/"+d.Name()] = true
		}
	}
	return runs, nil
}

// acmebenchExperiments reads the -exp ids from acmebench's runner
// table: the first field of every element of its []runner literal.
func acmebenchExperiments(file string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var ids []string
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		arr, ok := lit.Type.(*ast.ArrayType)
		if !ok {
			return true
		}
		if elt, ok := arr.Elt.(*ast.Ident); !ok || elt.Name != "runner" {
			return true
		}
		for _, e := range lit.Elts {
			if r, ok := e.(*ast.CompositeLit); ok && len(r.Elts) > 0 {
				if s, ok := r.Elts[0].(*ast.BasicLit); ok && s.Kind == token.STRING {
					if id, err := strconv.Unquote(s.Value); err == nil {
						ids = append(ids, id)
					}
				}
			}
		}
		return false
	})
	if len(ids) == 0 {
		return nil, fmt.Errorf("%s: no []runner table", file)
	}
	return ids, nil
}

// TestKnobList holds the checked-in KNOBS.txt to Config and BindFlags:
// every leaf field and every shared flag has exactly one line, and each
// line names a standing run that sets the knob or a class that says
// why it stays.
func TestKnobList(t *testing.T) {
	raw, err := os.ReadFile("KNOBS.txt")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := standingRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range checkKnobList(string(raw), knobs(), runs) {
		t.Error(problem)
	}
}

// TestKnobListRejects plants each kind of bad line in the real list:
// every one must be reported, once.
func TestKnobListRejects(t *testing.T) {
	raw, err := os.ReadFile("KNOBS.txt")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := standingRuns()
	if err != nil {
		t.Fatal(err)
	}
	list, all := string(raw), knobs()
	if got := checkKnobList(list, all, runs); len(got) != 0 {
		t.Fatalf("the checked-in list is rejected: %v", got)
	}
	const (
		field = "Fleet.SampleFrac: workload/fleet-sampled\n"
		flg   = "-sample-frac: workload/fleet-sampled\n"
	)
	for name, plant := range map[string]struct{ old, new string }{
		"unlisted field":   {field, ""},
		"unlisted flag":    {flg, ""},
		"stale field":      {field, field + "Fleet.SampleSize: paper\n"},
		"stale flag":       {flg, flg + "-sample-gone: paper\n"},
		"unknown class":    {field, "Fleet.SampleFrac: fleet-shape\n"},
		"no such run":      {field, "Fleet.SampleFrac: workload/fleet-full\n"},
		"no such run kind": {field, "Fleet.SampleFrac: make/fleet-smoke\n"},
		"out of order":     {field, "Fleet.SharedShards: workload/fleet-sampled\n" + field},
		"repeated":         {field, field + field},
		"one space":        {field, "Fleet.SampleFrac:  workload/fleet-sampled\n"},
		"no why":           {field, "Fleet.SampleFrac:\n"},
	} {
		if !strings.Contains(list, plant.old) {
			t.Fatalf("%s: the list has no line %q to plant against", name, plant.old)
		}
		bad := strings.Replace(list, plant.old, plant.new, 1)
		got := checkKnobList(bad, all, runs)
		// A malformed line also leaves its knob unlisted.
		want := 1
		if name == "one space" || name == "no why" {
			want = 2
		}
		if len(got) != want {
			t.Errorf("%s: %d problems reported, want %d: %v", name, len(got), want, got)
		}
	}
}
