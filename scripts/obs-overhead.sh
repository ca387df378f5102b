#!/usr/bin/env bash
# What observing a service round costs.
#
#   scripts/obs-overhead.sh <root test binary> [pairs]
#   make obs-overhead [N=10]
#
# Runs the root package's BenchmarkCacheCoupledRound (a cache-coupled
# round with the file system's registry, trace ring and latency
# histograms) and BenchmarkCacheCoupledRoundNoObs (the same round
# observing nothing) from one test binary, <pairs> runs of 200 000
# rounds each, alternating which twin goes first, then prints every
# run's ns/op, each twin's median and the ratio of the medians. It gates
# nothing: the ratio is information, and wall clock is not comparable
# across machines.
set -euo pipefail

bin=$1 pairs=${2:-10}

run() { # <benchmark> → its ns/op
	"$bin" -test.run '^$' -test.bench "^$1\$" -test.benchtime 200000x |
		awk -v b="$1" '$1 ~ "^" b "(-[0-9]+)?$" { print $3 }'
}

median() { # <values…> → their median
	printf '%s\n' "$@" | sort -g | awk '{ v[NR] = $1 } END { print (NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2) }'
}

obs=() bare=()
for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		obs+=("$(run BenchmarkCacheCoupledRound)")
		bare+=("$(run BenchmarkCacheCoupledRoundNoObs)")
	else
		bare+=("$(run BenchmarkCacheCoupledRoundNoObs)")
		obs+=("$(run BenchmarkCacheCoupledRound)")
	fi
done
mo=$(median "${obs[@]}") mb=$(median "${bare[@]}")
echo "observed:   ${obs[*]} ns/op; median $mo"
echo "unobserved: ${bare[*]} ns/op; median $mb"
awk -v o="$mo" -v b="$mb" 'BEGIN { printf "observed/unobserved, ratio of medians: %.3f\n", o / b }'
