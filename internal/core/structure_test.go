package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// maxFuncLines is the ceiling on a non-test function in this package,
// signature to closing brace, comments included. The round engines are
// sequences of named steps; a function that outgrows this is a step
// that wants a name.
const maxFuncLines = 120

// parseNonTest parses the package's non-test source files.
func parseNonTest(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			if !strings.HasSuffix(name, "_test.go") {
				files = append(files, f)
			}
		}
	}
	if len(files) == 0 {
		t.Fatal("no source files parsed")
	}
	return fset, files
}

// TestFunctionLengthCeiling fails when any non-test function in the
// package exceeds maxFuncLines, so the 550-line round body this package
// once had cannot grow back one feature at a time.
func TestFunctionLengthCeiling(t *testing.T) {
	fset, files := parseNonTest(t)
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			if n := end.Line - start.Line + 1; n > maxFuncLines {
				t.Errorf("%s:%d: %s is %d lines, over the %d-line ceiling — split it into named steps",
					start.Filename, start.Line, fn.Name.Name, n, maxFuncLines)
			}
		}
	}
}

// TestDeviceRoleReceivesThroughSession pins every role's receive
// discipline, the device's first among them: no code in this package
// calls a bare Recv, whose result the caller must remember to Release
// on every path, only Session.Receive (or Gather), which releases each
// frame when the handler returns (pinned in turn by transport's
// TestSessionReceiveReleasesEveryFrame).
func TestDeviceRoleReceivesThroughSession(t *testing.T) {
	fset, files := parseNonTest(t)
	receives := 0
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Recv":
				t.Errorf("%s: calls %s directly; wait through Session.Receive so the frame is released on every path",
					fset.Position(call.Pos()), sel.Sel.Name)
			case "Receive":
				receives++
			}
			return true
		})
	}
	if receives == 0 {
		t.Fatal("found no Session.Receive call: the check is looking at the wrong files")
	}
}
