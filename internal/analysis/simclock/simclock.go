// Package simclock keeps simulation-driven packages off the wall
// clock. Admission control, service rounds, and playback deadlines are
// all defined in virtual time (the storage manager's clock); a stray
// time.Now or time.Sleep makes those paths nondeterministic and
// untestable, and in the worst case mixes wall-clock instants into
// virtual deadlines.
// Code that legitimately needs the wall clock (e.g. operational
// logging of real elapsed time) opts out with //lint:ignore simclock.
package simclock

import (
	"go/ast"
	"go/types"

	"mmfs/internal/analysis"
)

// wallClock lists the time-package functions that read or wait on the
// wall clock. time.Duration arithmetic and constants remain free.
var wallClock = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Analyzer flags wall-clock calls in packages that must run on the
// injectable virtual clock.
var Analyzer = &analysis.Analyzer{
	Name: "simclock",
	Doc: "flag time.Now/time.Sleep and friends in simulation-driven packages; " +
		"timed behavior there must use the storage manager's virtual clock for determinism",
	PathPrefixes: []string{
		analysis.ModulePath + "/internal/msm",
		analysis.ModulePath + "/internal/server",
		analysis.ModulePath + "/internal/core",
		analysis.ModulePath + "/internal/cache",
		analysis.ModulePath + "/internal/fault",
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !wallClock[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock in a simulation-driven package; use the storage manager's virtual clock or opt out with //lint:ignore simclock", sel.Sel.Name)
			return true
		})
	}
	return nil
}
