package all_test

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmfs/internal/analysis/all"
)

// TestRegistry asserts every registered analyzer is fit for the
// multichecker: named, documented, and covered by at least one fixture
// file under internal/analysis/testdata/src/<name>/.
func TestRegistry(t *testing.T) {
	analyzers := all.Analyzers()
	if len(analyzers) < 8 {
		t.Fatalf("expected the full suite (>=8 analyzers), got %d", len(analyzers))
	}
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a.Name == "" {
			t.Errorf("analyzer with empty Name (doc %q)", a.Doc)
			continue
		}
		if seen[a.Name] {
			t.Errorf("analyzer %s registered twice", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run function", a.Name)
		}
		dir := filepath.Join("..", "testdata", "src", a.Name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Errorf("analyzer %s has no fixture directory %s: %v", a.Name, dir, err)
			continue
		}
		fixtures := 0
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				fixtures++
			}
		}
		if fixtures == 0 {
			t.Errorf("analyzer %s has no .go fixtures under %s", a.Name, dir)
		}
	}
}

// TestFactTypes asserts the interprocedural analyzer declares its
// fact prototypes and that every declared fact type survives a gob
// round trip — the encodability contract ExportFact enforces at run
// time, checked here before any pass runs.
func TestFactTypes(t *testing.T) {
	mustExport := map[string]bool{
		"boundedwork": true,
	}
	for _, a := range all.Analyzers() {
		if mustExport[a.Name] && len(a.FactTypes) == 0 {
			t.Errorf("analyzer %s exports facts but declares no FactTypes", a.Name)
		}
		delete(mustExport, a.Name)
		for _, f := range a.FactTypes {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(f); err != nil {
				t.Errorf("analyzer %s fact %T does not gob-encode: %v", a.Name, f, err)
				continue
			}
			if err := gob.NewDecoder(&buf).Decode(f); err != nil {
				t.Errorf("analyzer %s fact %T does not gob-decode: %v", a.Name, f, err)
			}
		}
	}
	for name := range mustExport {
		t.Errorf("fact-exporting analyzer %s is not registered", name)
	}
}

// TestScopesResolve asserts every PathPrefixes entry is rooted in the
// module, so a typo cannot silently scope an analyzer to nothing.
func TestScopesResolve(t *testing.T) {
	for _, a := range all.Analyzers() {
		for _, p := range a.PathPrefixes {
			if p != "mmfs" && !strings.HasPrefix(p, "mmfs/") {
				t.Errorf("analyzer %s scope %q is not rooted in the module path", a.Name, p)
			}
		}
	}
}
