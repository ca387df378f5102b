#!/usr/bin/env bash
# Non-test Go lines per package — the number ROADMAP item 2 tracks.
#
#   scripts/loc.sh [parent-rev]
#   make loc [PARENT=<rev>]
#
# Counts `wc -l` over every .go file directly in each internal/* and
# cmd/* package directory, leaving out _test.go files and anything under
# a testdata directory. Blank lines and comments count: a refactor that
# only strips them shows up here as the shrinkage it is, and a reviewer
# reads the diff for that. With a revision, the same count is made over
# `git archive <rev>` and printed beside the working tree's, with the
# difference.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

count() { # <tree> → "<package> <lines>" per package, sorted
	(cd "$1" && find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 |
		xargs -0 wc -l | awk '$2 != "total" { sub(/\/[^\/]*$/, "", $2); n[$2] += $1 } END { for (p in n) print p, n[p] }' | sort)
}

if [ $# -eq 0 ]; then
	count "$root" | awk '{ printf "%-36s %6d\n", $1, $2; t += $2 } END { printf "%-36s %6d\n", "total", t }'
	exit 0
fi

sha="$(git -C "$root" rev-parse --verify "$1^{commit}")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$sha" internal cmd | tar -x -C "$tmp"

printf '%-36s %8s %8s %7s\n' package "${sha:0:7}" tree diff
join -a1 -a2 -e0 -o 0,1.2,2.2 <(count "$tmp") <(count "$root") |
	awk '{ printf "%-36s %8d %8d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
	     END { printf "%-36s %8d %8d %+7d\n", "total", a, b, b - a }'
