#!/usr/bin/env bash
# Exported functions and methods under internal/ and cmd/internal/ that
# no product code refers to.
#
#   scripts/deadexports.sh
#   make lint
#
# A name is dead when every occurrence of it as an identifier in the
# repository's non-test Go code is one of its own declarations. A test
# is not a caller: references are counted by name over every .go file
# that is not a _test.go file — cmd/, examples/ and bench/ included —
# with comment-only lines left out (a doc comment names what it
# documents), and without the occurrences inside a function that itself
# bears the name: Manager.N calling Array.N is a wrapper, not a caller,
# and would keep both alive. Declarations are taken from non-test files
# outside testdata. Name-based means conservative: a dead method hides
# behind any live identifier of the same name declared elsewhere.
#
# Exempt: the names in the allowlist below, one reason each.
#
# Prints file:line and name for each dead export and exits 1, or prints
# nothing and exits 0.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

allow="$(sed -e 's/ *#.*//' -e '/^$/d' <<'ALLOW' | paste -sd'|'
Len|Less|Swap|String|Error # satisfy a standard-library interface: the library calls them
ImportFrom                 # analysis: satisfies types.ImporterFrom; the type checker calls it
MustNew                    # disk: the panicking constructor every test rig and benchmark starts from
MustNewArray               # disk: the same, for array rigs
FreeSectors                # alloc: the leak oracle of the strand, textfs and core write-path tests
FailNextReads              # fault: forces a fault at a chosen read, where a seeded rate cannot
RecordStartHeterogeneous   # client: the only sender of RECORDSTART's heterogeneous form (mmfsctl has no verb for it)
StartupDelay               # continuity: the start-up latency model ROADMAP item 1(c) is to predict with
ALLOW
)"

find . -name '*.go' ! -path './.bench_build/*' | sort | awk -v allow="^($allow)\$" '
	{
		file = $0
		if (file ~ /_test\.go$/) next
		self = ""
		own = file ~ /^\.\/(cmd\/)?internal\// && file !~ /\/testdata\//
		for (ln = 1; (getline line < file) > 0; ln++) {
			if (line ~ /^[ \t]*\/\//) continue
			if (line ~ /^}/) self = ""
			if (match(line, /^func (\([^)]*\) )?[A-Za-z0-9_]+/)) {
				self = substr(line, RSTART, RLENGTH)
				sub(/^func (\([^)]*\) )?/, "", self)
				count[self]++
				if (own && self ~ /^[A-Z]/) {
					decl[self]++
					if (!(self in where)) where[self] = file ":" ln
				}
			}
			n = split(line, tok, /[^A-Za-z0-9_]+/)
			for (i = 1; i <= n; i++) if (tok[i] != "" && tok[i] != self) count[tok[i]]++
			if (line ~ /^func .*}$/) self = ""
		}
		close(file)
	}
	END {
		for (name in decl)
			if (count[name] == decl[name] && name !~ allow) { print where[name] ": " name; bad = 1 }
		exit bad
	}' | sort
