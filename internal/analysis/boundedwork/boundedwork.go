// Package boundedwork enforces the other half of the real-time
// service contract: every loop reachable from a `// rt:hotpath` root
// must have a statically evident bound. The paper's round length
// (Eq. 15) is a function of n, the admitted stream count; a round
// whose work is not O(admitted state) — a bare `for {}`, a range over
// a map of unbounded population, a range over a channel, or recursion
// back into the round — has no place in the service-time budget that
// admission control certified.
//
// Seeds are unconditional `for` loops, ranges over maps, and ranges
// over channels; loops over slices, arrays, strings, integers, or with
// an explicit condition are taken as bounded (the condition is the
// author's stated bound). Summaries propagate by same-package
// fixpoint, cross-package pathFacts and interface joins (path.go), and
// same-package call-graph cycles that re-enter a hot-path root are
// reported at the call that closes the cycle.
// Deliberate exceptions carry a reasoned //lint:ignore boundedwork.
package boundedwork

import (
	"go/ast"
	"go/token"
	"go/types"

	"mmfs/internal/analysis"
)

// Analyzer reports potentially unbounded work reachable from
// rt:hotpath roots.
var Analyzer = &analysis.Analyzer{
	Name: "boundedwork",
	Doc: "flag unbounded loops (bare for, map/channel ranges) and recursion " +
		"transitively reachable from // rt:hotpath roots",
	FactTypes: []analysis.Fact{&pathFact{}},
	Run:       run,
}

// seeds collects the intrinsically unbounded loops of one body (the
// engine fills in each site's Chain).
func seeds(pass *analysis.Pass, fd *ast.FuncDecl) []site {
	info := pass.TypesInfo
	var sites []site
	add := func(pos token.Pos, what string) {
		sites = append(sites, site{Pos: pos, What: what})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closure bodies run in contexts this analyzer cannot
			// attribute.
			return false
		case *ast.ForStmt:
			if n.Cond == nil {
				add(n.Pos(), "unconditional for loop")
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					add(n.Pos(), "range over map")
				case *types.Chan:
					add(n.Pos(), "range over channel")
				}
			}
		}
		return true
	})
	return sites
}
