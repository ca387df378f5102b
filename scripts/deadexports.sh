#!/usr/bin/env bash
# Exported functions and methods under internal/ and cmd/internal/ that
# no product code refers to; then, as a report, the exports kept alive
# only by the benchmark harness.
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
# nothing and exits 0. Either way it then prints, without failing, the
# exported functions, methods and types declared there whose every
# reference outside the declaring package — string literals left out —
# is under bench/: facades kept only because bench/mmload compiles
# against them, the worklist of the benchmark PR that may edit it
# (ROADMAP item 10).
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

report="$(find . -name '*.go' ! -path './.bench_build/*' | sort | awk -v allow="^($allow)\$" '
	{
		file = $0
		if (file ~ /_test\.go$/) next
		dir = file
		sub(/\/[^\/]*$/, "", dir)
		self = ""
		own = file ~ /^\.\/(cmd\/)?internal\// && file !~ /\/testdata\//
		for (ln = 1; (getline line < file) > 0; ln++) {
			if (line ~ /^[ \t]*\/\//) continue
			if (line ~ /^}/) self = ""
			if (own && match(line, /^type [A-Z][A-Za-z0-9_]*/)) {
				name = substr(line, 6, RLENGTH - 5)
				tdecl[name] = 1
				if (!(name in where)) where[name] = file ":" ln
				if (!((name, dir) in home)) homes[name]++
				home[name, dir] = 1
			}
			if (match(line, /^func (\([^)]*\) )?[A-Za-z0-9_]+/)) {
				self = substr(line, RSTART, RLENGTH)
				sub(/^func (\([^)]*\) )?/, "", self)
				count[self]++
				if (own && self ~ /^[A-Z]/) {
					decl[self]++
					if (!(self in where)) where[self] = file ":" ln
					if (!((self, dir) in home)) homes[self]++
					home[self, dir] = 1
				}
			}
			n = split(line, tok, /[^A-Za-z0-9_]+/)
			for (i = 1; i <= n; i++) if (tok[i] != "" && tok[i] != self) count[tok[i]]++
			code = line # a type is not used by its own declaration or receivers
			gsub(/"([^"\\]|\\.)*"|`[^`]*`/, "", code)
			sub(/^type [A-Za-z0-9_]+|^func \([^)]*\)/, "", code)
			n = split(code, tok, /[^A-Za-z0-9_]+/)
			for (i = 1; i <= n; i++) if (tok[i] ~ /^[A-Z]/) uses[tok[i], dir]++
			if (line ~ /^func .*}$/) self = ""
		}
		close(file)
	}
	END {
		for (name in decl)
			if (count[name] == decl[name] && name !~ allow) print "dead " where[name] ": " name
		for (key in uses) {
			split(key, k, SUBSEP)
			if (!(k[1] in homes)) continue
			if (key in home) inner[k[1]] = 1
			else if (k[2] ~ /^\.\/bench\//) bench[k[1]] = 1
			else other[k[1]] = 1
		}
		for (name in bench)
			if (homes[name] == 1 && !(name in other) && !((name in tdecl) && (name in inner)))
				print "bench " where[name] ": " name
	}' | sort)"

dead="$(sed -n 's/^dead //p' <<<"$report")"
if [ -n "$dead" ]; then
	echo "$dead"
fi
echo "exports only bench/ names outside their package (kept for bench/mmload until ROADMAP item 10):"
sed -n 's/^bench /  /p' <<<"$report"
[ -z "$dead" ]
