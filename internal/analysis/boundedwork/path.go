package boundedwork

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mmfs/internal/analysis"
)

// This file is the analyzer's interprocedural layer. A function's
// summary is a pathFact: the set
// of offending sites (unbounded loops) reachable from its body, each
// carrying the call chain that reaches it. Summaries propagate through
// same-package calls to a fixpoint and across package boundaries as
// exported Facts, so a map range buried in internal/cache is still
// charged to the msm round loop that can reach it.
//
// Roots are declared in source with a doc-comment directive line:
//
//	// rt:hotpath
//
// A root's accumulated sites are reported; a call to a function that
// is itself a root is not descended into (nearest-root attribution:
// every site is reported exactly once, from its closest enclosing
// root). Sites are reported at the offending statement, so the
// //lint:ignore escape hatch is applied where the loop lives, next to
// the reasoning for it.

// site is one offending program point in a function's may-reach
// summary: a potentially unbounded loop, plus the call chain from the
// summarized function down to it.
type site struct {
	// Pos locates the offending expression or statement.
	Pos token.Pos
	// What names the construct ("range over map", ...).
	What string
	// Chain lists function display names from the summarized function
	// (first element) down to the one containing the site (last).
	Chain []string
}

// pathFact is the exported per-function summary of the path
// analyzer. Root marks rt:hotpath functions so importing packages
// apply nearest-root attribution instead of double-reporting.
type pathFact struct {
	Root  bool
	Sites []site
}

// AFact marks pathFact as an exportable fact.
func (*pathFact) AFact() {}

// maxPathSites caps one function's summary. The cap exists to bound
// the fixpoint on pathological fan-out; a hot-path function anywhere
// near it has bigger problems than a truncated report.
const maxPathSites = 48

// declFunc pairs a parsed function declaration with its type object.
type declFunc struct {
	Decl *ast.FuncDecl
	Fn   *types.Func
}

// sourceFuncs returns the package's function declarations that have
// bodies, in source order (file order, then declaration order), so
// fixpoints and reports are deterministic.
func sourceFuncs(pass *analysis.Pass) []declFunc {
	var out []declFunc
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			out = append(out, declFunc{Decl: fd, Fn: fn})
		}
	}
	return out
}

// isHotPathRoot reports whether the declaration carries a
// `// rt:hotpath` doc-comment directive line.
func isHotPathRoot(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "rt:hotpath" {
			return true
		}
	}
	return false
}

// funcDisplay renders a function for call-chain messages: Type.Name
// for methods, pkg.Name for package functions.
func funcDisplay(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, name := analysis.Named(sig.Recv().Type()); name != "" {
			return name + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// firstParty reports whether the import path belongs to this module.
func firstParty(path string) bool {
	return path == analysis.ModulePath || strings.HasPrefix(path, analysis.ModulePath+"/")
}

// advice closes every diagnostic with the repair options.
const advice = "bound it by admitted state (slice iteration or an explicit condition), or //lint:ignore boundedwork with the design reason"

// callRef is one resolved call edge out of a function body.
type callRef struct {
	callee *types.Func
	pos    token.Pos
}

// run executes the engine: seed per-function summaries, propagate
// through calls to a fixpoint, export pathFacts (joining method
// summaries into the first-party interfaces they implement), report
// every site reachable from a hot-path root, and report the
// same-package call cycles that re-enter one.
func run(pass *analysis.Pass) error {
	decls := sourceFuncs(pass)

	summaries := make(map[*types.Func]*pathFact, len(decls))
	seen := make(map[*types.Func]map[token.Pos]bool, len(decls))
	calls := make(map[*types.Func][]callRef, len(decls))
	for _, d := range decls {
		sum := &pathFact{Root: isHotPathRoot(d.Decl)}
		posSet := make(map[token.Pos]bool)
		for _, s := range seeds(pass, d.Decl) {
			if posSet[s.Pos] {
				continue
			}
			posSet[s.Pos] = true
			s.Chain = []string{funcDisplay(d.Fn)}
			sum.Sites = append(sum.Sites, s)
		}
		summaries[d.Fn] = sum
		seen[d.Fn] = posSet
		calls[d.Fn] = collectCalls(pass, d.Decl.Body)
	}

	// Fixpoint: absorb callee summaries (same-package bodies and
	// imported facts) until no summary grows. Dedup by site position
	// keeps the iteration monotone and terminating even on recursion.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			sum := summaries[d.Fn]
			for _, c := range calls[d.Fn] {
				var from *pathFact
				if c.callee.Pkg() == pass.Pkg {
					from = summaries[c.callee]
				} else if c.callee.Pkg() != nil && firstParty(c.callee.Pkg().Path()) {
					if f, ok := pass.ImportFact(c.callee); ok {
						from, _ = f.(*pathFact)
					}
				}
				// Nearest-root attribution: a callee that is itself a
				// hot-path root reports its own sites.
				if from == nil || from.Root {
					continue
				}
				for _, s := range from.Sites {
					if seen[d.Fn][s.Pos] || len(sum.Sites) >= maxPathSites {
						continue
					}
					seen[d.Fn][s.Pos] = true
					chain := make([]string, 0, len(s.Chain)+1)
					chain = append(chain, funcDisplay(d.Fn))
					chain = append(chain, s.Chain...)
					sum.Sites = append(sum.Sites, site{Pos: s.Pos, What: s.What, Chain: chain})
					changed = true
				}
			}
		}
	}

	for _, d := range decls {
		sum := summaries[d.Fn]
		if sum.Root || len(sum.Sites) > 0 {
			pass.ExportFact(d.Fn, sum)
		}
	}
	joinInterfaceFacts(pass, summaries)

	reported := make(map[token.Pos]bool)
	for _, d := range decls {
		sum := summaries[d.Fn]
		if !sum.Root {
			continue
		}
		for _, s := range sum.Sites {
			if reported[s.Pos] {
				continue
			}
			reported[s.Pos] = true
			pass.Reportf(s.Pos, "%s on the real-time path, reached via %s — %s",
				s.What, strings.Join(s.Chain, " → "), advice)
		}
	}
	reportRootCycles(pass, decls, summaries, calls, reported)
	return nil
}

// collectCalls resolves the call edges of one body. Function literals
// are not descended into: their execution context is not statically
// known.
func collectCalls(pass *analysis.Pass, body *ast.BlockStmt) []callRef {
	var out []callRef
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.Callee(pass.TypesInfo, call)
		if callee == nil {
			return true
		}
		out = append(out, callRef{callee: callee, pos: call.Pos()})
		return true
	})
	return out
}

// joinInterfaceFacts publishes, for every first-party interface a
// package's concrete types implement, the union of the implementing
// methods' summaries under the interface method's key. Later packages
// calling through the interface (msm through disk.Device, which both
// *disk.Disk and *fault.Disk implement) then see the join of every
// implementation loaded before them in dependency order.
func joinInterfaceFacts(pass *analysis.Pass, summaries map[*types.Func]*pathFact) {
	ifaces := firstPartyInterfaces(pass.Pkg)
	if len(ifaces) == 0 {
		return
	}
	scope := pass.Pkg.Scope()
	for _, tn := range scope.Names() {
		obj, ok := scope.Lookup(tn).(*types.TypeName)
		if !ok || obj.IsAlias() {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		for _, ifn := range ifaces {
			iface := ifn.Type().Underlying().(*types.Interface)
			impl := types.Type(named)
			if !types.Implements(impl, iface) {
				if !types.Implements(types.NewPointer(named), iface) {
					continue
				}
				impl = types.NewPointer(named)
			}
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(impl, true, im.Pkg(), im.Name())
				cm, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				var from *pathFact
				if cm.Pkg() == pass.Pkg {
					from = summaries[cm]
				} else if f, ok := pass.ImportFact(cm); ok {
					// Promoted method from an embedded cross-package
					// type (fault.Disk embedding *disk.Disk).
					from, _ = f.(*pathFact)
				}
				if from == nil || (len(from.Sites) == 0 && !from.Root) {
					continue
				}
				joined := &pathFact{}
				if prev, ok := pass.ImportFact(im); ok {
					if pf, ok := prev.(*pathFact); ok {
						joined.Root = pf.Root
						joined.Sites = append(joined.Sites, pf.Sites...)
					}
				}
				joined.Root = joined.Root || from.Root
				havePos := make(map[token.Pos]bool, len(joined.Sites))
				for _, s := range joined.Sites {
					havePos[s.Pos] = true
				}
				for _, s := range from.Sites {
					if !havePos[s.Pos] && len(joined.Sites) < maxPathSites {
						havePos[s.Pos] = true
						joined.Sites = append(joined.Sites, s)
					}
				}
				pass.ExportFact(im, joined)
			}
		}
	}
}

// firstPartyInterfaces lists the named interface types visible to the
// package: declared in it or exported by a first-party import.
func firstPartyInterfaces(pkg *types.Package) []*types.TypeName {
	var out []*types.TypeName
	collect := func(p *types.Package) {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && types.IsInterface(named) {
				out = append(out, tn)
			}
		}
	}
	if firstParty(pkg.Path()) {
		collect(pkg)
	}
	for _, imp := range pkg.Imports() {
		if firstParty(imp.Path()) {
			collect(imp)
		}
	}
	return out
}

// reportRootCycles flags same-package call cycles that re-enter a
// hot-path root: a round that can recurse into itself has no static
// work bound no matter what its loops look like.
func reportRootCycles(pass *analysis.Pass, decls []declFunc, summaries map[*types.Func]*pathFact, calls map[*types.Func][]callRef, reported map[token.Pos]bool) {
	for _, root := range decls {
		if !summaries[root.Fn].Root {
			continue
		}
		// Visit every function reachable from the root once (the chain
		// recorded is the first discovery path); any edge from a
		// visited function back to the root closes a cycle.
		var chain []string
		visited := make(map[*types.Func]bool)
		var visit func(fn *types.Func)
		visit = func(fn *types.Func) {
			visited[fn] = true
			chain = append(chain, funcDisplay(fn))
			for _, c := range calls[fn] {
				if c.callee == root.Fn {
					if !reported[c.pos] {
						reported[c.pos] = true
						pass.Reportf(c.pos, "recursion: call re-enters hot-path root %s (%s → %s) — %s",
							funcDisplay(root.Fn), strings.Join(chain, " → "), funcDisplay(root.Fn), advice)
					}
					continue
				}
				if summaries[c.callee] == nil || visited[c.callee] {
					continue
				}
				visit(c.callee)
			}
			chain = chain[:len(chain)-1]
		}
		visit(root.Fn)
	}
}
