package analysis

import (
	"go/ast"
	"go/types"
)

// Named returns the defining package path and name of t's named type,
// looking through one level of pointer. Both are "" for unnamed types;
// the path is "" for universe types like error.
func Named(t types.Type) (pkgPath, name string) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// Callee resolves the function or method a call expression statically
// invokes, or nil for calls through function values, built-ins, and
// type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// Receiver returns the static type of the receiver of a method call,
// or nil when call is not a method call (package-qualified functions
// included).
func Receiver(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok {
		return nil
	}
	return s.Recv()
}

// IsFromPackage reports whether t (possibly *T) is any named type
// declared in the package with the given import path (net.Conn,
// *net.TCPConn, ... for "net").
func IsFromPackage(t types.Type, pkgPath string) bool {
	p, _ := Named(t)
	return p == pkgPath
}

// IsBuiltin reports whether the call invokes the named builtin
// (append, make, new, ...), resolved through the type info rather than
// by identifier spelling so shadowed names do not fool it.
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// RootName renders the base identifier of an lvalue-ish expression:
// x for `x`, `x.Field`, and `x[i].Field`; "" when there is none.
func RootName(e ast.Expr) string {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v.Name
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return ""
		}
	}
}
