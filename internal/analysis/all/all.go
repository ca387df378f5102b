// Package all registers the complete mmfsvet analyzer suite in one
// place, so the multichecker driver (cmd/mmfsvet) and the registry
// self-test agree on what "all analyzers" means. Adding an analyzer
// here is the single step that puts it into `make lint`, CI, and the
// fixture-coverage check.
package all

import (
	"mmfs/internal/analysis"
	"mmfs/internal/analysis/boundedwork"
	"mmfs/internal/analysis/deadlineguard"
	"mmfs/internal/analysis/detmap"
	"mmfs/internal/analysis/lockguard"
	"mmfs/internal/analysis/noerrdrop"
	"mmfs/internal/analysis/simclock"
	"mmfs/internal/analysis/unitsafety"
	"mmfs/internal/analysis/wireswitch"
)

// Analyzers returns the full suite in reporting order: the model and
// protocol invariants first (PR 1), then the determinism and deadline
// checks, then the interprocedural real-time path check (boundedwork).
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		unitsafety.Analyzer,
		lockguard.Analyzer,
		wireswitch.Analyzer,
		noerrdrop.Analyzer,
		simclock.Analyzer,
		detmap.Analyzer,
		deadlineguard.Analyzer,
		boundedwork.Analyzer,
	}
}
