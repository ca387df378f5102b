#!/usr/bin/env bash
# Exported functions and methods under internal/ that nothing refers to.
#
#   scripts/deadexports.sh
#   make lint
#
# A name is dead when every occurrence of it as an identifier in the
# repository's Go code is one of its own declarations. References are
# counted by name over every .go file — tests, cmd/, examples/ and
# bench/ included — with comment-only lines left out (a doc comment
# names what it documents). Declarations are taken from non-test files
# outside testdata. Name-based means conservative: a dead method hides
# behind any live identifier of the same name. Methods that exist to
# satisfy a standard-library interface are called by the library, not by
# name; they are the allowlist.
#
# Prints file:line and name for each dead export and exits 1, or prints
# nothing and exits 0.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

allow='^(Len|Less|Swap|String|Error)$'

find . -name '*.go' ! -path './.bench_build/*' | sort | awk -v allow="$allow" '
	{
		file = $0
		own = file ~ /^\.\/internal\// && file !~ /_test\.go$/ && file !~ /\/testdata\//
		for (ln = 1; (getline line < file) > 0; ln++) {
			if (line ~ /^[ \t]*\/\//) continue
			if (own && match(line, /^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*/)) {
				name = substr(line, RSTART, RLENGTH)
				sub(/^func (\([^)]*\) )?/, "", name)
				decl[name]++
				if (!(name in where)) where[name] = file ":" ln
			}
			n = split(line, tok, /[^A-Za-z0-9_]+/)
			for (i = 1; i <= n; i++) if (tok[i] != "") count[tok[i]]++
		}
		close(file)
	}
	END {
		for (name in decl)
			if (count[name] == decl[name] && name !~ allow) { print where[name] ": " name; bad = 1 }
		exit bad
	}' | sort
