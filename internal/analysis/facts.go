package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
)

// Fact is a function summary exported by one analyzer pass and
// importable by later passes of the same analyzer over packages that
// depend on the exporting one. This mirrors go/analysis Facts: a fact
// must be a pointer type with gob-encodable exported fields, so a
// future out-of-process driver could serialize summaries next to
// export data. The AFact marker keeps arbitrary values out of the
// store.
type Fact interface{ AFact() }

// factKey identifies one exported fact. Facts are keyed by the
// analyzer name and a stable string rendering of the function
// (FuncKey), not by *types.Func identity: the same function is a
// different object when seen from source during its own pass and from
// export data during an importer's pass.
type factKey struct {
	analyzer string
	fn       string
}

// FactStore holds the facts exported while running a suite of
// analyzers over a dependency-ordered package list. One store is
// shared across all packages of a RunAll invocation.
type FactStore struct {
	facts map[factKey]Fact
	// encodable caches gob-encodability per concrete fact type, so the
	// (comparatively slow) round-trip check runs once per type rather
	// than once per function.
	encodable map[string]error
}

// NewFactStore creates an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		facts:     make(map[factKey]Fact),
		encodable: make(map[string]error),
	}
}

// checkEncodable enforces the go/analysis contract that facts are
// gob-serializable, failing fast at export time instead of in a
// hypothetical future driver that actually writes them to disk.
func (s *FactStore) checkEncodable(f Fact) error {
	tname := fmt.Sprintf("%T", f)
	err, seen := s.encodable[tname]
	if !seen {
		err = gob.NewEncoder(&bytes.Buffer{}).Encode(f)
		s.encodable[tname] = err
	}
	if err != nil {
		return fmt.Errorf("fact type %s is not gob-encodable: %v", tname, err)
	}
	return nil
}

// put records f for (analyzer, key), replacing any previous fact.
func (s *FactStore) put(analyzer, key string, f Fact) error {
	if err := s.checkEncodable(f); err != nil {
		return err
	}
	s.facts[factKey{analyzer, key}] = f
	return nil
}

// get retrieves the fact exported for (analyzer, key).
func (s *FactStore) get(analyzer, key string) (Fact, bool) {
	f, ok := s.facts[factKey{analyzer, key}]
	return f, ok
}

// FuncKey renders a function as a stable cross-package identifier:
// pkgpath.Name for package functions, pkgpath.Type.Name for methods.
// Interface methods key on the interface type, which is how the path
// analyzer publishes a join over all known implementations.
func FuncKey(fn *types.Func) string {
	key := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, name := Named(sig.Recv().Type()); name != "" {
			key = name + "." + key
		}
	}
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "." + key
	}
	return key
}

// ImportFact retrieves the summary this pass's analyzer exported for
// fn, from this package or one it imports.
func (p *Pass) ImportFact(fn *types.Func) (Fact, bool) {
	return p.facts.get(p.Analyzer.Name, FuncKey(fn))
}

// ExportFact publishes a summary for fn, visible to later passes of
// the same analyzer over packages that import this one. Facts must be
// gob-encodable; a violation is a programming error in the analyzer
// and panics rather than silently dropping the summary.
func (p *Pass) ExportFact(fn *types.Func, f Fact) {
	if err := p.facts.put(p.Analyzer.Name, FuncKey(fn), f); err != nil {
		panic(fmt.Sprintf("%s: ExportFact(%s): %v", p.Analyzer.Name, FuncKey(fn), err))
	}
}
