// Package analysis is a small, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis vocabulary, just large enough to
// host the mmfsvet analyzers. The repo is deliberately stdlib-only, so
// instead of vendoring x/tools the framework loads packages itself
// (load.go) and hands each analyzer a Pass with parsed files and full
// type information.
//
// Diagnostics can be suppressed with a directive comment
//
//	//lint:ignore <analyzer> reason
//
// placed either on the flagged line or on the line immediately above
// it. The analyzer name "all" suppresses every analyzer. A directive
// that suppresses nothing is itself a finding (RunAll).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ModulePath is the import-path prefix of this repository's packages.
// Analyzers use it to recognize first-party code.
const ModulePath = "mmfs"

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// PathPrefixes restricts which packages the multichecker applies
	// the analyzer to (matched as import-path prefixes at path-segment
	// granularity). Empty means every package. Tests bypass it.
	PathPrefixes []string
	// FactTypes declares one prototype per fact type the analyzer may
	// export. An analyzer that calls ExportFact must list its fact
	// types here (the registry self-test enforces gob-encodability).
	FactTypes []Fact
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// AppliesTo reports whether the multichecker should run the analyzer
// over the package with the given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.PathPrefixes) == 0 {
		return true
	}
	for _, p := range a.PathPrefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps positions of every file in the pass.
	Fset *token.FileSet
	// Files are the package's parsed sources, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records types and objects for every expression.
	TypesInfo *types.Info

	facts       *FactStore
	diagnostics []Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Analyzer names the check that produced it.
	Analyzer string
	// Message describes the violated invariant.
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunPass executes one analyzer over one package against a shared
// fact store and returns the raw findings, without suppression.
// Callers that span packages (RunAll, analysistest) apply Suppress
// once over every loaded file, so a //lint:ignore next to a site in a
// dependency package also covers diagnostics that importing packages'
// passes anchor there.
func RunPass(a *Analyzer, pkg *Package, store *FactStore) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		facts:     store,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	return pass.diagnostics, nil
}

// RunAll executes every applicable analyzer over every package in
// dependency order — so facts exported by a package are visible to
// the packages importing it — and returns the surviving findings
// sorted by position. Suppression is applied globally: an interprocedural
// diagnostic anchored in a dependency's file is covered by the
// //lint:ignore directive in that file, whichever package's pass
// reported it. A directive name that is not one of analyzers (or
// "all"), or that covered no finding, comes back as a "staleignore"
// finding at the directive — so over a subset of the module a
// directive whose finding is reached from an unloaded package's root
// reads as stale.
func RunAll(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	ordered := dependencyOrder(pkgs)
	store := NewFactStore()
	var all []Diagnostic
	var fset *token.FileSet
	var files []*ast.File
	for _, pkg := range ordered {
		fset = pkg.Fset
		files = append(files, pkg.Files...)
		for _, a := range analyzers {
			if !a.AppliesTo(pkg.Path) {
				continue
			}
			diags, err := RunPass(a, pkg, store)
			if err != nil {
				return nil, err
			}
			all = append(all, diags...)
		}
	}
	if fset == nil {
		return nil, nil
	}
	all, unused := suppress(fset, files, all)
	// Interprocedural analyzers can reach one site from roots in
	// several packages; one diagnostic per (analyzer, site) is
	// enough for a human or CI.
	type siteKey struct {
		analyzer string
		pos      token.Pos
	}
	dedup := all[:0]
	seen := make(map[siteKey]bool, len(all))
	for _, d := range all {
		k := siteKey{d.Analyzer, d.Pos}
		if seen[k] {
			continue
		}
		seen[k] = true
		dedup = append(dedup, d)
	}
	all = dedup
	registered := map[string]bool{"all": true}
	for _, a := range analyzers {
		registered[a.Name] = true
	}
	for _, u := range unused {
		msg := "//lint:ignore " + u.name + " suppresses no finding — delete it"
		if !registered[u.name] {
			msg = "//lint:ignore names no registered analyzer " + strconv.Quote(u.name)
		}
		all = append(all, Diagnostic{Pos: u.pos, Analyzer: staleIgnore, Message: msg})
	}
	sort.SliceStable(all, func(i, j int) bool {
		pi, pj := fset.Position(all[i].Pos), fset.Position(all[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all, nil
}

// dependencyOrder sorts packages topologically: every package after
// the first-party packages it imports, ties broken by import path so
// the order is deterministic. Fact exports rely on this.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		p := byPath[path]
		if p == nil || state[path] != 0 {
			return
		}
		state[path] = 1
		imps := append([]string(nil), p.Imports...)
		sort.Strings(imps)
		for _, imp := range imps {
			visit(imp)
		}
		state[path] = 2
		out = append(out, p)
	}
	for _, path := range paths {
		visit(path)
	}
	return out
}

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)`)

// staleIgnore is the Analyzer name RunAll gives the finding for a
// //lint:ignore that names no registered analyzer or suppresses
// nothing. It is no analyzer, so it cannot itself be ignored.
const staleIgnore = "staleignore"

// ignore is one analyzer name of one //lint:ignore directive.
type ignore struct {
	pos  token.Pos // the directive comment
	name string    // the analyzer name as the directive spells it
	used bool      // it covered a diagnostic
}

// Suppress drops diagnostics covered by //lint:ignore directives in
// the given files. A directive on line L covers findings on line L
// (trailing comment) and line L+1 (comment above the statement).
func Suppress(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	kept, _ := suppress(fset, files, diags)
	return kept
}

// suppress is Suppress, returning beside the surviving diagnostics each
// name of each directive that covered none, in file and source order.
func suppress(fset *token.FileSet, files []*ast.File, diags []Diagnostic) ([]Diagnostic, []*ignore) {
	var ignores []*ignore
	// byLine maps file name -> line -> the directive names covering it.
	byLine := make(map[string]map[int][]*ignore)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*ignore)
					byLine[pos.Filename] = lines
				}
				for _, n := range strings.Split(m[1], ",") {
					ig := &ignore{pos: c.Pos(), name: strings.TrimSpace(n)}
					ignores = append(ignores, ig)
					lines[pos.Line] = append(lines[pos.Line], ig)
					lines[pos.Line+1] = append(lines[pos.Line+1], ig)
				}
			}
		}
	}
	var kept []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		covered := false
		for _, ig := range byLine[pos.Filename][pos.Line] {
			if ig.name == d.Analyzer || ig.name == "all" {
				ig.used, covered = true, true
			}
		}
		if !covered {
			kept = append(kept, d)
		}
	}
	unused := ignores[:0]
	for _, ig := range ignores {
		if !ig.used {
			unused = append(unused, ig)
		}
	}
	return kept, unused
}
