GO ?= go

# The race subset (nightly.yml races the whole tree). server, client and
# obs are where goroutines meet: connections, the drain, the metrics
# registry's atomics; so is cmd/mmedit, whose info reads the file system
# its in-process server goroutine serves. The rest is what the server
# drives under s.mu; a service round starts no goroutine (the lanes are
# swept inline), so there the detector guards against one coming back
# unannounced. internal/simtest is the file system's walk: core's
# interleavings, driven the way the server drives them.
RACE_PKGS = ./internal/server ./internal/msm ./internal/client ./internal/cache ./internal/obs ./internal/fault ./internal/disk ./internal/core ./internal/simtest ./cmd/mmedit

# Where the benchmarks with a baseline entry live: the root package's
# experiment tables and hot-path micros, and the interval cache's own.
BENCH_PKGS = . ./internal/cache

# What race-bench runs one pass of, and what bench-check holds to the
# baseline's allocs/op (each list once: ci.yml calls the targets). The
# lent playback is named apart: a -bench pattern with a slash filters
# every benchmark's sub-benchmarks, so it runs in an invocation of its own.
RACE_BENCHES = BenchmarkStripedRound|BenchmarkRound1000Streams|BenchmarkRebuildRound|BenchmarkCacheCoupledRound|BenchmarkCacheCoupledRoundNoObs|BenchmarkFollowerRound|BenchmarkCachedConcurrentPlayback|BenchmarkCacheFill|BenchmarkFetchReply|BenchmarkCodecSmall|BenchmarkEditCycle|BenchmarkSync
ALLOC_BENCHES = BenchmarkPlayArrival|BenchmarkPlaybackRound|BenchmarkStripedRound|BenchmarkQoSClassPass|BenchmarkRebuildRound|BenchmarkCacheCoupledRound|BenchmarkCacheCoupledRoundNoObs|BenchmarkFollowerRound|BenchmarkCacheFill|BenchmarkCacheAdopt|BenchmarkFetchReply|BenchmarkCodecSmall|BenchmarkEditCycle|BenchmarkSync
ALLOC_BENCH_LENT = BenchmarkCachedConcurrentPlayback/lent

.PHONY: all build test race race-bench lint loc bench bench-baseline bench-compare bench-check obs-overhead mmload-pairs fuzz chaos clean

all: build lint test

build:
	$(GO) build ./...

# bench/mmload is a module of its own (it is the BENCHMARK.json
# harness), so ./... never reaches it; build, vet and test it here so an
# API rename that breaks the benchmark fails tier-1 instead of the
# benchmark gate.
test:
	$(GO) test ./...
	$(GO) build -C bench/mmload -o /dev/null ./...
	$(GO) vet -C bench/mmload ./...
	$(GO) test -C bench/mmload ./...

race:
	$(GO) test -race $(RACE_PKGS)

# One pass of the striped-array benchmarks under the race detector. A
# round is one goroutine's work, so what the detector watches here is
# the state a round shares with the rest of the process — the metrics
# registry's atomics, the trace ring — under the heaviest rounds there
# are: 1000 admitted streams over the busy lanes (and, in the rebuild
# benchmark, the online repair engine riding the rounds' slack); the
# cache-coupled round is the other end, one play's two strands on their
# spindles' lanes feeding the interval cache — which retains the views the
# lanes are lent (BenchmarkCachedConcurrentPlayback's leader and followers, and
# BenchmarkCacheFill's inserts at capacity). The FETCH handler and the codec
# ride along: lent platter bytes copied into a reused reply encoder. So
# does the write path: an edit cycle copying blocks lent from the platters
# it writes to, and Sync encoding into its one scratch buffer.
race-bench:
	$(GO) test -race -run '^$$' -bench '$(RACE_BENCHES)' -benchtime=1x $(BENCH_PKGS)

# lint = gofmt (the benchmark's build directory aside), the standard vet
# suite plus mmfsvet, the project's own eight invariant checkers (see
# DESIGN.md "Invariants & static analysis") — a //lint:ignore that names
# no analyzer or suppresses no finding is a finding too. Findings are
# also archived to mmfsvet.json so CI can upload them as an artifact,
# and under GitHub Actions (which sets GITHUB_ACTIONS) each one
# annotates the diff. Last,
# scripts/deadexports.sh: exported functions and methods under internal/
# and cmd/internal/ that no product code names fail it; it then lists,
# without failing, the exports only bench/ names outside their package
# (the facades ROADMAP item 10 deletes). Then scripts/runpatterns.sh: every -run,
# -fuzz and -bench alternative here and in .github/workflows must still
# name a function in its packages (go test -list), so a renamed test
# cannot quietly drop out of chaos, fuzz or the allocation gate. This
# is the CI gate: ci.yml runs it.
lint:
	@unformatted="$$(gofmt -l . | grep -v '^\.bench_build/')"; \
		if [ -n "$$unformatted" ]; then echo "gofmt -l: not formatted:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/mmfsvet $(if $(GITHUB_ACTIONS),-github) -json mmfsvet.json ./...
	bash scripts/deadexports.sh
	bash scripts/runpatterns.sh

# Non-test, non-testdata Go lines per internal/* and cmd/* package — the
# count ROADMAP item 2's line budget is kept in. With PARENT=<rev> the
# same count over `git archive PARENT` is printed beside the working
# tree's; a simplification PR quotes that table in CHANGES.md.
loc:
	bash scripts/loc.sh $(PARENT)

# One pass over every benchmark (the experiment tables plus the
# hot-path micros), archived as JSON for cross-commit diffing.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x $(BENCH_PKGS) | tee bench.out
	$(GO) run ./cmd/benchjson -out BENCH_$$(date +%F).json < bench.out

# Refresh the committed regression baseline. Wall-clock ns/op is
# stripped: only the deterministic simulated-disk metrics (disk busy
# time, blocks, cache hit ratio) are stable across machines.
bench-baseline:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -strip-wallclock -out bench/baseline.json

# Gate the working tree against the committed baseline (what CI runs):
# every metric, allocs/op included — a round starts no goroutine, so one
# iteration allocates what a hundred do per op.
bench-compare:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -out bench/current.json
	$(GO) run ./cmd/benchjson -compare -tolerance 0.15 bench/baseline.json bench/current.json

# Allocation-regression gate: the steady-state service rounds
# (BenchmarkPlaybackRound/steady, BenchmarkStripedRound/steady — a
# 4-spindle array's lane rounds at the k admission stepped to —
# BenchmarkQoSClassPass — the round
# loop with the QoS class pass engaged on a degraded population —
# BenchmarkRebuildRound, the round loop with an online rebuild
# in flight — and BenchmarkCacheCoupledRound, the round that feeds the
# interval cache from frames an earlier manager left) must hold their
# baseline allocs/op — zero — and the
# full-playback variants must not grow their allocation counts past
# tolerance. The wire path is gated the same way: BenchmarkCodecSmall
# (a STATS-shaped body through a reused encoder and the in-place
# decoder) at zero, BenchmarkFetchReply (the FETCH handler into a warmed
# connection encoder) at its handful of small allocations — it also
# fails itself at 8 KiB/op, so nothing may scale with the 540 KB reply.
# An arrival likewise: BenchmarkPlayArrival (a repeat whole-rope PLAY and
# its STOP at a saturated 4-spindle file system) holds its baseline
# allocs/op, which the rope's length does not enter.
# The write path likewise: BenchmarkEditCycle (INSERT + DELETE + Sync on
# an aged rope) fails itself at 16 KiB allocated per copied 54 KB block,
# BenchmarkSync (600 strands, 7 ropes) at 16 KiB/op, and both hold their
# baseline allocs/op within tolerance. The interval cache's fill is gated
# where it lives: BenchmarkCacheFill (internal/cache: an insert at capacity
# of a block the device lent) at zero allocs/op — it fails itself if a byte
# was copied — and BenchmarkCachedConcurrentPlayback/lent (a leader and
# three followers on the 4-spindle array, which fails itself if the cache
# ends owning memory) at its baseline allocs/op. So is the cache's arrival
# path: BenchmarkCacheAdopt (Adoptable, then OpenStream, Adopt and
# CloseStream for a follower 8 blocks behind its leader, beside 1 200
# resident frames and 200 open streams on other strands) holds its
# baseline allocs/op — the one stream an open allocates; its ns/op is
# the per-strand index's to keep, a leader search costing the strand's
# streams and the gap. One compare judges them
# all: -subset takes the pattern the benchmarks were run with.
# The gate measures steady state: over 100 iterations a warm-up one-off
# (a scratch slice growing to its working size) amortises to 0 allocs/op
# while a per-round allocation still reads >= 1; the baseline's per-op
# figures are unaffected by the iteration count. Fast enough to run on
# every push.
bench-check:
	{ $(GO) test -run '^$$' -bench='$(ALLOC_BENCHES)' -benchmem -benchtime=100x $(BENCH_PKGS) && \
	  $(GO) test -run '^$$' -bench='$(ALLOC_BENCH_LENT)' -benchmem -benchtime=100x . ; } | $(GO) run ./cmd/benchjson -out bench/allocs.json
	$(GO) run ./cmd/benchjson -compare -subset '$(ALLOC_BENCHES)|$(ALLOC_BENCH_LENT)' bench/baseline.json bench/allocs.json

# What observing a service round costs (ROADMAP 17): the cache-coupled
# round with the file system's registry, trace ring and histograms, and
# its twin observing nothing, N interleaved pairs of 200 000 rounds from
# one root test binary built once; prints every run, each median and the
# ratio of the medians. Information only: it gates nothing.
OBS_BENCHES = BenchmarkCacheCoupledRound|BenchmarkCacheCoupledRoundNoObs
obs-overhead:
	$(GO) test -c -o .bench_build/obs.test -run '^$$' -bench '$(OBS_BENCHES)' .
	bash scripts/obs-overhead.sh .bench_build/obs.test $(N)

# Paired end-to-end runs of the BENCHMARK.json harness: PARENT (a git
# revision) against the working tree, N alternating pairs of WORKLOAD
# (a name, a comma list, or "all") on PAIR_SEED, then mmload -compare. A PR
# that claims a speed-up commits the resulting
# .bench_build/pairs/trajectory.json as bench/trajectory/PR<n>.json.
N ?= 10
PAIR_SEED ?= 1
mmload-pairs:
	bash scripts/mmload-pairs.sh $(PARENT) $(WORKLOAD) $(N) $(PAIR_SEED)

# Short fuzz pass over the wire codec, the server's dispatcher, the rope
# table codec, the fault-scenario parser and the file system's walk;
# lengthen -fuzztime locally.
fuzz:
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzEncodeDecodeRoundTrip -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzDecoderMatchesReference -fuzztime=10s ./internal/wire
	$(GO) test -run '^$$' -fuzz=FuzzHandle -fuzztime=10s ./internal/server
	$(GO) test -run '^$$' -fuzz=FuzzRopeTableMatchesReference -fuzztime=10s ./internal/rope
	$(GO) test -fuzz=FuzzParseScenario -fuzztime=10s ./internal/fault
	$(GO) test -run '^$$' -fuzz=FuzzWalk -fuzztime=10s ./internal/simtest

# Replay the EXP-FT chaos storms, the EXP-STRIPE degraded-spindle run,
# the EXP-QOS overload cycle, and the EXP-REBUILD spindle-loss/rebuild
# cycle, then check the acceptance assertions (zero aborted plays,
# zero escalation stops, bounded degradation, fault isolation per
# spindle, premium streams undisturbed through load shedding and
# through a whole-spindle loss, admission restored after the online
# rebuild). SEED offsets the storms (see the nightly loop).
SEED ?= 0
chaos:
	$(GO) run ./cmd/mmexperiments -seed $(SEED) -exp ft
	$(GO) run ./cmd/mmexperiments -seed $(SEED) -exp stripe
	$(GO) run ./cmd/mmexperiments -seed $(SEED) -exp qos
	$(GO) run ./cmd/mmexperiments -seed $(SEED) -exp rebuild
	$(GO) test -run 'TestFaultTolerance|TestStripedScaling|TestQoS|TestRebuild' ./internal/experiments
	$(GO) test -run 'TestStriped|TestMirrored' ./internal/msm

clean:
	$(GO) clean ./...
