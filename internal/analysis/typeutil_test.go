package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"testing"
)

const typeutilFixture = `package tu

import (
	"net"

	"mmfs/internal/disk"
)

type wrap struct{ c net.Conn }

var (
	conn net.Conn
	w    wrap
	arr  []int
	m    map[int][]int
	dev  disk.Device
)

func f() {
	arr = append(arr, 1)
	_ = len(arr)
	_ = w.c
	_ = m[0]
	_ = conn
	_ = dev
}
`

// checkTypeutilFixture type-checks the snippet above against real
// export data, exercising the helpers exactly as analyzers use them.
func checkTypeutilFixture(t *testing.T) (*Resolver, *Package) {
	t.Helper()
	r, err := NewResolver(moduleRoot(t), "./internal/disk")
	if err != nil {
		t.Fatalf("NewResolver: %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tu.go")
	if err := os.WriteFile(path, []byte(typeutilFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := r.ParseFile(path)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pkg, info, err := r.Check(ModulePath+"/fixture/typeutil", []*ast.File{f})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return r, &Package{Path: pkg.Path(), Fset: r.Fset(), Files: []*ast.File{f}, Types: pkg, TypesInfo: info}
}

func TestIsFromPackage(t *testing.T) {
	_, p := checkTypeutilFixture(t)
	scope := p.Types.Scope()
	if !IsFromPackage(scope.Lookup("conn").Type(), "net") {
		t.Error("net.Conn not recognized as from net")
	}
	if IsFromPackage(scope.Lookup("w").Type(), "net") {
		t.Error("local struct claimed to be from net")
	}
	if IsFromPackage(scope.Lookup("arr").Type(), "net") {
		t.Error("unnamed slice claimed to be from net")
	}
}

func TestIsBuiltinAndRootName(t *testing.T) {
	_, p := checkTypeutilFixture(t)
	var appendCall, lenCall *ast.CallExpr
	var sel, idx ast.Expr
	ast.Inspect(p.Files[0], func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "append":
					appendCall = n
				case "len":
					lenCall = n
				}
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == "c" {
				sel = n
			}
		case *ast.IndexExpr:
			idx = n
		}
		return true
	})
	if appendCall == nil || lenCall == nil || sel == nil || idx == nil {
		t.Fatal("fixture expressions not found")
	}
	if !IsBuiltin(p.TypesInfo, appendCall, "append") {
		t.Error("append call not recognized")
	}
	if IsBuiltin(p.TypesInfo, appendCall, "len") {
		t.Error("append call misrecognized as len")
	}
	if !IsBuiltin(p.TypesInfo, lenCall, "len") {
		t.Error("len call not recognized")
	}
	if got := RootName(sel); got != "w" {
		t.Errorf("RootName(w.c) = %q, want w", got)
	}
	if got := RootName(idx); got != "m" {
		t.Errorf("RootName(m[0]) = %q, want m", got)
	}
	if got := RootName(ast.NewIdent("arr")); got != "arr" {
		t.Errorf("RootName(arr) = %q, want arr", got)
	}
}
