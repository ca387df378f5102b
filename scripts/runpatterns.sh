#!/usr/bin/env bash
# Test-name patterns that no longer name a test.
#
#   scripts/runpatterns.sh
#   make lint
#
# Every `go test` command in the Makefile and in .github/workflows/*.yml
# that passes -run, -fuzz or -bench is read here, with the Makefile's
# variables ($(RACE_BENCHES), $(BENCH_PKGS), …) and a workflow's matrix
# entries (${{ matrix.target }}, ${{ matrix.pkg }}) expanded. Each
# `|`-alternative of each pattern must match at least one test function
# — a Test or Example for -run, a Benchmark for -bench, a Fuzz target
# for -fuzz — that `go test -list` reports in the command's packages.
# A refactor that renames a test otherwise shrinks `make chaos` or the
# allocation gate without a word. An alternative that is `^$` (run
# nothing) is skipped; one with a `/` is checked up to the slash (only
# top-level names are listed).
#
# Prints file, the alternative and its packages for each dead one and
# exits 1, or prints nothing and exits 0.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The Makefile's `NAME = value` and `NAME ?= value` assignments.
declare -A var
while IFS= read -r line; do
	name=${line%%[ ?]*}
	var[$name]=${line#*= }
done < <(grep -E '^[A-Z_]+ \??= ' Makefile)

expand() { # <makefile command> → the command with $(NAME) and $$ expanded
	local s=$1 name
	for name in "${!var[@]}"; do
		s=${s//"\$($name)"/${var[$name]}}
	done
	printf '%s' "${s//\$\$/\$}"
}

commands() { # → "<file>\t<command>" per go test command with a pattern
	local line f target pkg
	while IFS= read -r line; do
		printf 'Makefile\t%s\n' "$(expand "$line")"
	done < <(grep -E '\$\(GO\) test .*-(run|fuzz|bench)' Makefile)
	for f in .github/workflows/*.yml; do
		while IFS= read -r line; do
			line=${line#*run: }
			if [[ $line != *'${{ matrix.'* ]]; then
				printf '%s\t%s\n' "$f" "$line"
				continue
			fi
			while read -r target pkg; do
				line2=${line//'${{ matrix.target }}'/$target}
				printf '%s\t%s\n' "$f" "${line2//'${{ matrix.pkg }}'/$pkg}"
			done < <(sed -nE 's/.*\{ *target: *([^, ]+), *pkg: *([^ }]+) *\}.*/\1 \2/p' "$f")
		done < <(grep -E 'go test .*-(run|fuzz|bench)' "$f")
	done
}

# listed[pkg]: the package's test, benchmark, fuzz and example functions.
declare -A listed
list() {
	[[ -n ${listed[$1]+set} ]] || listed[$1]=$(go test -list '.*' "$1" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
}

bad=0
while IFS=$'\t' read -r file cmd; do
	# Split as the shell would, up to the end of the go test command
	# or the test binary's own -args.
	mapfile -t words < <(xargs -n1 printf '%s\n' <<<"$cmd")
	pkgs=() flags=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case $w in
		-args | '|' | '&&' | ';' | '}') break ;;
		-run | -fuzz | -bench)
			flags+=("$w=${words[i + 1]}")
			((i += 1))
			;;
		-run=* | -fuzz=* | -bench=*) flags+=("$w") ;;
		. | ./*) pkgs+=("$w") ;;
		esac
	done
	for flag in "${flags[@]}"; do
		kind=${flag%%=*} pattern=${flag#*=}
		case $kind in
		-run) prefix='^(Test|Example|Fuzz)' ;;
		-bench) prefix='^Benchmark' ;;
		-fuzz) prefix='^Fuzz' ;;
		esac
		IFS='|' read -ra alts <<<"$pattern"
		for alt in "${alts[@]}"; do
			[[ $alt == '^$' ]] && continue
			alt=${alt%%/*}
			found=0
			for pkg in "${pkgs[@]}"; do
				list "$pkg"
				if grep -E "$prefix" <<<"${listed[$pkg]}" | grep -qE -- "$alt"; then
					found=1
					break
				fi
			done
			if ((!found)); then
				echo "$file: $kind $alt names no function in ${pkgs[*]}"
				bad=1
			fi
		done
	done
done < <(commands)
exit $bad
