// Command mmfsvet is the multichecker driver for the mmfs analyzer
// suite. It loads the packages matching its arguments (default ./...),
// runs every analyzer that applies to each package, and prints one
// line per finding:
//
//	path/file.go:line:col: [analyzer] message
//
// Flags:
//
//	-v            list the packages and analyzers as they run
//	-json FILE    also write the findings as a JSON array to FILE
//	              (written even when the tree is clean, so CI always
//	              has an artifact to upload)
//	-github       emit GitHub Actions ::error workflow commands so
//	              findings annotate the PR diff
//
// The exit status is 0 when the tree is clean, 1 when findings were
// reported, and 2 for a bad flag or when loading or analysis failed. Individual findings
// are suppressed with a `//lint:ignore <analyzer> reason` comment on
// the flagged line or the line above it, and a directive that names no
// registered analyzer or suppresses no finding is itself a finding
// ([staleignore]; judged over the packages loaded, so meaningful over
// ./...). DESIGN.md documents the checked invariants.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mmfs/internal/analysis"
	"mmfs/internal/analysis/all"
)

// finding is the JSON shape of one diagnostic, stable for CI tooling.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns
// the exit status: 0 clean, 1 findings, 2 a bad flag or a load,
// analysis or write failure.
func run(args []string, stdout, stderr io.Writer) int {
	analyzers := all.Analyzers()
	fl := flag.NewFlagSet("mmfsvet", flag.ContinueOnError)
	fl.SetOutput(stderr)
	verbose := fl.Bool("v", false, "list the packages and analyzers as they run")
	jsonPath := fl.String("json", "", "write findings as a JSON array to this file")
	github := fl.Bool("github", false, "emit GitHub Actions ::error annotations")
	fl.Usage = func() {
		fmt.Fprintf(stderr, "usage: mmfsvet [-v] [-json file] [-github] [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fl.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mmfsvet: %v\n", err)
		return 2
	}
	if *verbose {
		for _, pkg := range pkgs {
			var applied []string
			for _, a := range analyzers {
				if a.AppliesTo(pkg.Path) {
					applied = append(applied, a.Name)
				}
			}
			fmt.Fprintf(stderr, "mmfsvet: %s: %v\n", pkg.Path, applied)
		}
	}
	diags, err := analysis.RunAll(analyzers, pkgs)
	if err != nil {
		fmt.Fprintf(stderr, "mmfsvet: %v\n", err)
		return 2
	}
	cwd, _ := os.Getwd()
	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		name := pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
				name = rel
			}
		}
		findings = append(findings, finding{
			File:     name,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		if *github {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::[%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(findings, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "mmfsvet: writing %s: %v\n", *jsonPath, err)
			return 2
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
