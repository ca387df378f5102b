package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
)

// Regression gating. Wall-clock ns/op is compared too, but the primary
// gate is the deterministic simulated-disk metrics (disk busy time,
// blocks transferred, cache hit ratio): virtual time does not vary
// with CI runner load, so a change there is a real behavioural change,
// not noise.
//
// lowerBetterPrefixes selects metrics where an increase beyond the
// tolerance is a regression; higherBetter selects metrics where a
// decrease is.
var (
	lowerBetterPrefixes = []string{"disk_busy", "disk_blocks", "allocs/op"}
	higherBetter        = map[string]bool{"cache_hit_pct": true, "n_admitted": true}
)

// loadReport reads a benchjson report from disk.
func loadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func lowerBetter(metric string) bool {
	for _, p := range lowerBetterPrefixes {
		if strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

// compareReports diffs cur against base and returns one line per
// regression beyond the tolerance (0.15 = 15%). A benchmark missing
// from cur is a regression (coverage lost); one missing from base is
// ignored (new benchmarks cannot regress). A non-empty subset — the
// pattern `go test -bench` ran with: a regexp matched anywhere in the
// name, families joined by | — restricts the gate to what it matches (and
// skips the cross-suite summary): a fast CI job against the full baseline.
func compareReports(base, cur Report, tol float64, subset string) []string {
	only := regexp.MustCompile(subset) // the empty pattern matches every name
	curBy := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	var regs []string
	worse := func(name, metric string, b, c float64) {
		// A zero baseline cannot be scaled by a tolerance; any
		// measurable value is an infinite-ratio regression.
		if b == 0 {
			if c > 0 {
				regs = append(regs, fmt.Sprintf("%s: %s grew from 0 to %g", name, metric, c))
			}
			return
		}
		if c > b*(1+tol) {
			regs = append(regs, fmt.Sprintf("%s: %s regressed %.1f%% (%g -> %g, tolerance %.0f%%)",
				name, metric, (c/b-1)*100, b, c, tol*100))
		}
	}
	for _, bb := range base.Benchmarks {
		if !only.MatchString(bb.Name) {
			continue
		}
		cb, ok := curBy[bb.Name]
		if !ok {
			regs = append(regs, fmt.Sprintf("%s: missing from new report", bb.Name))
			continue
		}
		// A baseline written with -strip-wallclock records no ns/op
		// (wall clock is meaningless across heterogeneous runners);
		// only compare it when the baseline has it.
		if bb.NsPerOp > 0 {
			worse(bb.Name, "ns/op", bb.NsPerOp, cb.NsPerOp)
		}
		// Walk metrics in sorted order so the regression report reads
		// the same from run to run.
		metrics := make([]string, 0, len(bb.Metrics))
		for metric := range bb.Metrics {
			metrics = append(metrics, metric)
		}
		sort.Strings(metrics)
		for _, metric := range metrics {
			bv := bb.Metrics[metric]
			cv, ok := cb.Metrics[metric]
			if !ok {
				continue
			}
			switch {
			case lowerBetter(metric):
				worse(bb.Name, metric, bv, cv)
			case higherBetter[metric]:
				if bv > 0 && cv < bv*(1-tol) {
					regs = append(regs, fmt.Sprintf("%s: %s dropped %.1f%% (%g -> %g, tolerance %.0f%%)",
						bb.Name, metric, (1-cv/bv)*100, bv, cv, tol*100))
				}
			}
		}
	}
	if subset == "" && base.Summary != nil && cur.Summary != nil {
		worse("summary", "disk_busy_ms", base.Summary.DiskBusyMs, cur.Summary.DiskBusyMs)
		worse("summary", "disk_blocks", base.Summary.DiskBlocks, cur.Summary.DiskBlocks)
		if b, c := base.Summary.CacheHitPct, cur.Summary.CacheHitPct; b > 0 && c < b*(1-tol) {
			regs = append(regs, fmt.Sprintf("summary: cache_hit_pct dropped %.1f%% (%g -> %g, tolerance %.0f%%)",
				(1-c/b)*100, b, c, tol*100))
		}
	}
	return regs
}

// summarize aggregates the simulated-disk metrics across benchmarks so
// CI can gate on one pair of numbers per run.
func summarize(rep *Report) {
	var s Summary
	var hitSum float64
	var hitN int
	for _, b := range rep.Benchmarks {
		for metric, v := range b.Metrics {
			switch {
			case strings.HasPrefix(metric, "disk_busy"):
				s.DiskBusyMs += v
			case strings.HasPrefix(metric, "disk_blocks"):
				s.DiskBlocks += v
			case metric == "cache_hit_pct":
				hitSum += v
				hitN++
			}
		}
	}
	if hitN > 0 {
		s.CacheHitPct = hitSum / float64(hitN)
	}
	if s != (Summary{}) {
		rep.Summary = &s
	}
}
