package acme

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// trafficClasses is the closed list of reasons a production function
// may stay on TRAFFIC.txt, the functions no standing run executes
// (`make traffic`). A function that fits none of them gets a run or
// goes.
var trafficClasses = map[string]string{
	"simd-fallback":  "the pure-Go loop of an assembly kernel",
	"bench-trace":    "called only by bench/'s -trace 1 mode: per-layer metrics and the replay",
	"test-reference": "the oracle a test compares production code against",
	"test-seam":      "a hook that only tests set or read",
	"stringer":       "a String method, or the name table behind one",
	"interface":      "a method a production interface requires",
	"cli":            "reached only by a CLI mode no standing run uses",
	"error-path":     "runs only when a peer or an input fails",
}

// trafficLine is one TRAFFIC.txt entry: `file: function  # class`,
// with the function named as `go tool covdata func` names it (a method
// as `Type.Method` or `*Type.Method`).
var trafficLine = regexp.MustCompile(`^(\S+\.go): (\S+)  # (\S*)$`)

// checkTrafficList returns every way list breaks TRAFFIC.txt's form:
// a line not of the `file: function  # class` shape, a class outside
// trafficClasses, a function that file does not declare, or a line out
// of C order or repeated.
func checkTrafficList(list string) []string {
	var bad []string
	funcs := map[string]map[string]bool{} // file → declared function names
	prev := ""
	for i, line := range strings.Split(strings.TrimSuffix(list, "\n"), "\n") {
		at := fmt.Sprintf("TRAFFIC.txt:%d", i+1)
		if i > 0 && line <= prev {
			bad = append(bad, fmt.Sprintf("%s: %q is not after %q (C order, no repeats)", at, line, prev))
		}
		prev = line
		m := trafficLine.FindStringSubmatch(line)
		if m == nil {
			bad = append(bad, fmt.Sprintf("%s: %q is not `file: function  # class`", at, line))
			continue
		}
		file, fn, class := m[1], m[2], m[3]
		if _, ok := trafficClasses[class]; !ok {
			bad = append(bad, fmt.Sprintf("%s: %s has class %q, not one of the closed list", at, fn, class))
		}
		if funcs[file] == nil {
			names, err := declaredFuncs(file)
			if err != nil {
				bad = append(bad, fmt.Sprintf("%s: %v", at, err))
				continue
			}
			funcs[file] = names
		}
		if !funcs[file][fn] {
			bad = append(bad, fmt.Sprintf("%s: %s declares no %s", at, file, fn))
		}
	}
	return bad
}

// declaredFuncs names every function file declares, methods by their
// receiver's base type.
func declaredFuncs(file string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil {
			recv, star := fd.Recv.List[0].Type, ""
			if s, ok := recv.(*ast.StarExpr); ok {
				recv, star = s.X, "*"
			}
			if ix, ok := recv.(*ast.IndexExpr); ok { // a generic type, region[T]
				recv = ix.X
			}
			name = star + recv.(*ast.Ident).Name + "." + name
		}
		names[name] = true
	}
	return names, nil
}

// TestTrafficList holds the checked-in TRAFFIC.txt to its form, so a
// stale or unreasoned line fails here instead of only in the
// four-minute `make traffic`, which compares the names with what the
// standing runs leave unexecuted.
func TestTrafficList(t *testing.T) {
	raw, err := os.ReadFile("TRAFFIC.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range checkTrafficList(string(raw)) {
		t.Error(problem)
	}
}

// TestTrafficListRejects plants each kind of bad line next to good
// ones: every one must be reported.
func TestTrafficListRejects(t *testing.T) {
	const good = "internal/tensor/tensor.go: axpyGo  # simd-fallback\n"
	for name, list := range map[string]string{
		"stale function":  good + "internal/tensor/tensor.go: axpyGone  # simd-fallback\n",
		"stale file":      "internal/gone/gone.go: F  # cli\n" + good,
		"wrong receiver":  "internal/chaos/detect.go: Detector.State  # test-seam\n" + good,
		"no class":        good + "internal/wire/wire.go: tagName\n",
		"empty class":     good + "internal/wire/wire.go: tagName  # \n",
		"unknown class":   good + "internal/wire/wire.go: tagName  # unused\n",
		"out of order":    "internal/wire/wire.go: tagName  # error-path\n" + good,
		"repeated":        good + good,
		"one space":       "internal/tensor/tensor.go: axpyGo # simd-fallback\n",
		"no file colon":   "internal/tensor/tensor.go axpyGo  # simd-fallback\n",
		"trailing spaces": "internal/tensor/tensor.go: axpyGo  # simd-fallback \n",
	} {
		if got := checkTrafficList(list); len(got) == 0 {
			t.Errorf("%s: %q passed", name, list)
		}
	}
	if got := checkTrafficList(good + "internal/wire/wire.go: tagName  # error-path\n"); len(got) != 0 {
		t.Errorf("a well-formed list was rejected: %v", got)
	}
}
