package analysis

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// nobad is the toy analyzer of the staleignore fixture.
var nobad = &Analyzer{
	Name: "nobad",
	Doc:  "flag calls of a function named bad",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "bad" {
						pass.Reportf(call.Pos(), "call of bad")
					}
				}
				return true
			})
		}
		return nil
	},
}

// TestStaleIgnore proves RunAll reports a //lint:ignore that names no
// registered analyzer or suppresses no finding, and only those: every
// want comment of the fixture is met by a finding on its line, and
// every finding by a want.
func TestStaleIgnore(t *testing.T) {
	r, err := NewResolver(moduleRoot(t), "./internal/analysis")
	if err != nil {
		t.Fatalf("NewResolver: %v", err)
	}
	path := filepath.Join("testdata", "src", "staleignore", "a.go")
	f, err := r.ParseFile(path)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg, info, err := r.Check(ModulePath+"/fixture/staleignore", []*ast.File{f})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	diags, err := RunAll([]*Analyzer{nobad}, []*Package{{
		Path: pkg.Path(), Fset: r.Fset(), Files: []*ast.File{f}, Types: pkg, TypesInfo: info,
	}})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	want := make(map[int]string) // line -> what the finding there must say
	wantRe := regexp.MustCompile("// want `([^`]*)`")
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if m := wantRe.FindStringSubmatch(c.Text); m != nil {
				want[r.Fset().Position(c.Pos()).Line] = m[1]
			}
		}
	}
	for _, d := range diags {
		analyzer := nobad.Name
		if strings.Contains(d.Message, "lint:ignore") {
			analyzer = staleIgnore
		}
		line := r.Fset().Position(d.Pos).Line
		if sub, ok := want[line]; !ok || !strings.Contains(d.Message, sub) || d.Analyzer != analyzer {
			t.Errorf("line %d: finding [%s] %q, want [%s] %q", line, d.Analyzer, d.Message, analyzer, sub)
		}
		delete(want, line)
	}
	for line, sub := range want {
		t.Errorf("line %d: no finding, want %q", line, sub)
	}
}
