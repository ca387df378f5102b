package main

import (
	"strings"
	"testing"
)

func report(busy float64) Report {
	return Report{
		Benchmarks: []Benchmark{
			{Name: "BenchmarkPlaybackRound", N: 1, NsPerOp: 1e6, Metrics: map[string]float64{
				"disk_busy_ms/op": busy,
				"disk_blocks/op":  40,
			}},
			{Name: "BenchmarkCachedConcurrentPlayback", N: 1, NsPerOp: 2e6, Metrics: map[string]float64{
				"disk_blocks":   100,
				"cache_hit_pct": 60,
				"n_admitted":    8,
			}},
		},
		Summary: &Summary{DiskBusyMs: busy, DiskBlocks: 140, CacheHitPct: 60},
	}
}

// TestSyntheticDiskBusyRegression is the CI gate's proof: a 20%
// increase in simulated disk busy time must fail a 15%-tolerance
// compare, and an identical report must pass.
func TestSyntheticDiskBusyRegression(t *testing.T) {
	base := report(100)
	if regs := compareReports(base, report(100), 0.15, ""); len(regs) != 0 {
		t.Fatalf("identical reports flagged: %v", regs)
	}
	regs := compareReports(base, report(120), 0.15, "")
	if len(regs) == 0 {
		t.Fatal("20%% disk-busy regression passed a 15%% tolerance")
	}
	found := false
	for _, r := range regs {
		if strings.Contains(r, "disk_busy_ms") && strings.Contains(r, "regressed 20.0%") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no disk_busy regression line in %v", regs)
	}
	// 20% is inside a 25% tolerance.
	if regs := compareReports(base, report(120), 0.25, ""); len(regs) != 0 {
		t.Fatalf("20%% regression flagged at 25%% tolerance: %v", regs)
	}
}

func TestCompareDirections(t *testing.T) {
	base := report(100)

	cur := report(100)
	cur.Benchmarks[1].Metrics["cache_hit_pct"] = 40 // -33%: higher-is-better drop
	cur.Summary.CacheHitPct = 40
	if regs := compareReports(base, cur, 0.15, ""); len(regs) != 2 {
		// Per-benchmark metric and the summary mirror of it.
		t.Fatalf("hit-ratio drop: got %v", regs)
	}

	cur = report(100)
	cur.Benchmarks[0].NsPerOp = 1e6 * 1.5
	if regs := compareReports(base, cur, 0.15, ""); len(regs) != 1 || !strings.Contains(regs[0], "ns/op") {
		t.Fatalf("ns/op regression: got %v", regs)
	}

	// Improvements in lower-better metrics never flag.
	cur = report(50)
	cur.Benchmarks[0].NsPerOp = 1
	if regs := compareReports(base, cur, 0.15, ""); len(regs) != 0 {
		t.Fatalf("improvement flagged: %v", regs)
	}

	// A wallclock-stripped baseline (ns/op = 0) never gates on ns/op.
	stripped := report(100)
	for i := range stripped.Benchmarks {
		stripped.Benchmarks[i].NsPerOp = 0
	}
	if regs := compareReports(stripped, report(100), 0.15, ""); len(regs) != 0 {
		t.Fatalf("stripped baseline flagged ns/op: %v", regs)
	}

	// A benchmark disappearing from the new report is lost coverage.
	cur = report(100)
	cur.Benchmarks = cur.Benchmarks[:1]
	if regs := compareReports(base, cur, 0.15, ""); len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("missing benchmark: got %v", regs)
	}

	// Zero baseline growing to nonzero is an infinite-ratio regression.
	cur = report(100)
	base.Benchmarks[0].Metrics["disk_busy_ms/op"] = 0
	base.Summary.DiskBusyMs = 0
	if regs := compareReports(base, cur, 0.15, ""); len(regs) != 2 {
		t.Fatalf("zero-baseline growth: got %v", regs)
	}
}

// TestAllocGateAndSubset proves the allocation gate: allocs/op is a
// lower-better metric whose zero baseline flags any growth, and
// -subset restricts the gate to one benchmark family.
func TestAllocGateAndSubset(t *testing.T) {
	base := report(100)
	base.Benchmarks[0].Metrics["allocs/op"] = 0

	cur := report(100)
	cur.Benchmarks[0].Metrics["allocs/op"] = 2
	regs := compareReports(base, cur, 0.15, "")
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") || !strings.Contains(regs[0], "grew from 0") {
		t.Fatalf("alloc growth past a zero baseline: got %v", regs)
	}

	// The same growth inside the subset still flags.
	if regs := compareReports(base, cur, 0.15, "BenchmarkPlaybackRound"); len(regs) != 1 {
		t.Fatalf("alloc growth under subset: got %v", regs)
	}

	// A regression outside the subset is out of the gate's scope.
	cur = report(100)
	cur.Benchmarks[1].Metrics["cache_hit_pct"] = 40
	cur.Summary.CacheHitPct = 40
	if regs := compareReports(base, cur, 0.15, "BenchmarkPlaybackRound"); len(regs) != 0 {
		t.Fatalf("subset leaked an out-of-scope regression: %v", regs)
	}

	// The subset is go test -bench's pattern: families join with |, a
	// sub-benchmark is named through its slash, and a family the pattern
	// names but the new report lacks is lost coverage.
	base.Benchmarks = append(base.Benchmarks, Benchmark{Name: "BenchmarkCachedConcurrentPlayback/lent", N: 1, Metrics: map[string]float64{"allocs/op": 10}})
	cur.Benchmarks = append(cur.Benchmarks, Benchmark{Name: "BenchmarkCachedConcurrentPlayback/lent", N: 1, Metrics: map[string]float64{"allocs/op": 20}})
	for pattern, want := range map[string]int{
		"BenchmarkSync|BenchmarkPlaybackRound":                      0,
		"BenchmarkPlaybackRound|BenchmarkCachedConcurrentPlayback$": 1, // the hit ratio
		"BenchmarkSync|BenchmarkCachedConcurrentPlayback/lent":      1, // the allocations
		"BenchmarkCachedConcurrentPlayback":                         2,
		"PlaybackRound|Playback/le":                                 1,
	} {
		if regs := compareReports(base, cur, 0.15, pattern); len(regs) != want {
			t.Fatalf("-subset %q: %d regression(s), want %d: %v", pattern, len(regs), want, regs)
		}
	}
	cur.Benchmarks = cur.Benchmarks[1:]
	if regs := compareReports(base, cur, 0.15, "BenchmarkSync|BenchmarkPlaybackRound"); len(regs) != 1 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("a family in the pattern and not in the report: got %v", regs)
	}
}

func TestSummarize(t *testing.T) {
	rep := Report{Benchmarks: []Benchmark{
		{Name: "A", Metrics: map[string]float64{"disk_busy_ms/op": 10, "disk_blocks/op": 4}},
		{Name: "B", Metrics: map[string]float64{"disk_blocks": 100, "cache_hit_pct": 80}},
		{Name: "C", Metrics: map[string]float64{"cache_hit_pct": 40, "n_max": 16}},
	}}
	summarize(&rep)
	if rep.Summary == nil {
		t.Fatal("no summary")
	}
	if rep.Summary.DiskBusyMs != 10 || rep.Summary.DiskBlocks != 104 || rep.Summary.CacheHitPct != 60 {
		t.Fatalf("summary %+v", *rep.Summary)
	}

	empty := Report{Benchmarks: []Benchmark{{Name: "D"}}}
	summarize(&empty)
	if empty.Summary != nil {
		t.Fatalf("summary on metric-free report: %+v", *empty.Summary)
	}
}

func TestParseLineSummaryInputs(t *testing.T) {
	b, ok := parseLine("BenchmarkPlaybackRound-8  1  123456 ns/op  12.5 disk_busy_ms/op  40.0 disk_blocks/op")
	if !ok || b.Name != "BenchmarkPlaybackRound" || b.NsPerOp != 123456 {
		t.Fatalf("parse: %+v %v", b, ok)
	}
	if b.Metrics["disk_busy_ms/op"] != 12.5 || b.Metrics["disk_blocks/op"] != 40 {
		t.Fatalf("metrics: %v", b.Metrics)
	}
}
