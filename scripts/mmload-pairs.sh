#!/usr/bin/env bash
# Paired parent/change runs of the BENCHMARK.json harness, for claiming
# (or ruling out) a performance change the way the choosing-metrics rule
# asks: the parent commit and the working tree run the same benchmark
# code alternately, which side goes first alternating too, so a slow
# drift of the machine lands on both sides alike.
#
#   scripts/mmload-pairs.sh <parent-rev> <workload>[,<workload>…]|all [pairs] [seed]
#   make mmload-pairs PARENT=<rev> WORKLOAD=<name> [N=10] [PAIR_SEED=1]
#
# The parent is exported (git archive — no worktree metadata is left in
# .git) into .bench_build/pairs/parent; each side builds its own mmload
# and mmfsd from its own source through bench/mmload/run.sh. Output, in
# .bench_build/pairs/: parent.json and change.json (mmload -json run
# sets), compare.txt (mmload -compare parent change) and trajectory.json
# (both run sets with the revision, pair count and seed — the file a PR
# that claims a gain commits as bench/trajectory/PR<n>.json). Exit
# status is mmload -compare's: 1 when an end-to-end metric is worse.
set -euo pipefail

if [ $# -lt 2 ]; then
	sed -n '2,18p' "$0" >&2
	exit 2
fi
parent_rev="$1"
workloads="$2"
pairs="${3:-10}"
seed="${4:-1}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/pairs"
parent="$out/parent"
sha="$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")"
if [ "$workloads" = all ]; then
	workloads="wire-vod,wire-edit,serve-striped,serve-cache"
fi

rm -rf "$out"
mkdir -p "$parent" "$root/.bench_build/tmp"
git -C "$root" archive "$sha" | tar -x -C "$parent"

# One build cache for both sides: the second side's build is a cache hit
# for every package the change left alone.
export GOCACHE="${GOCACHE:-$root/.bench_build/go-cache}"
export GOPATH="${GOPATH:-$root/.bench_build/gopath}"
export GOTMPDIR="${GOTMPDIR:-$root/.bench_build/tmp}"

run_side() { # <checkout> <json> <workload>
	bash "$1/bench/mmload/run.sh" -workload "$3" -seed "$seed" -json "$2" >/dev/null
}

# pair <first checkout> <its json> <second checkout> <its json> <workload>:
# one run of each side, in that order.
pair() {
	run_side "$1" "$2" "$5"
	run_side "$3" "$4" "$5"
}

for w in ${workloads//,/ }; do
	for i in $(seq 1 "$pairs"); do
		if [ $((i % 2)) -eq 1 ]; then
			pair "$parent" "$out/parent.json" "$root" "$out/change.json" "$w"
		else
			pair "$root" "$out/change.json" "$parent" "$out/parent.json" "$w"
		fi
		echo "mmload-pairs: $w pair $i/$pairs done" >&2
	done
done

{
	printf '{"parent_rev":"%s","pairs":%d,"seed":%d,"workloads":"%s","parent":' "$sha" "$pairs" "$seed" "$workloads"
	cat "$out/parent.json"
	printf ',"change":'
	cat "$out/change.json"
	printf '}\n'
} >"$out/trajectory.json"

status=0
cd "$root" # mmload reads BENCHMARK.json from its working directory
"$root/.bench_build/mmload" -compare "$out/parent.json" "$out/change.json" | tee "$out/compare.txt" || status=$?
echo "mmload-pairs: wrote $out/{parent.json,change.json,compare.txt,trajectory.json}" >&2
exit "$status"
