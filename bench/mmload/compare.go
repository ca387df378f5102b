package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is -compare's finding for one metric on one workload.
type verdict string

const (
	same       verdict = "same"
	worse      verdict = "worse"
	better     verdict = "better"
	unresolved verdict = "unresolved" // the run-to-run spread is wider than the bound
	noBound    verdict = "-"          // per-layer metrics carry no bound; the change is shown, not judged
)

// judge applies the bound to two run sets of one metric. a is the
// parent, b the change.
//
//   - worse: b's median is worse than a's by more than the bound (the
//     rule the driver rejects on).
//   - better: b wins at least nine tenths of all pairs (one run of a
//     against one of b, ties counting for neither) and its median is
//     better by more than a's own interquartile spread.
//   - unresolved: neither, but either side's spread exceeds the bound,
//     so "no regression" cannot be claimed.
//   - same: otherwise.
//
// The sets are not paired in time, so a slow drift of the machine
// between them shows as "better" or eats into the bound; to claim a
// gain, alternate parent and change run by run.
func judge(def metricDef, a, b []float64) (v verdict, change float64) {
	ma, mb := median(a), median(b)
	// change is positive when b is worse, as a share of a's median.
	change = ratio(mb-ma, ma)
	if def.Better == "higher" {
		change = -change
	}
	if ma == mb {
		return same, 0
	}
	if change > def.Bound {
		return worse, change
	}
	wins, losses := 0, 0
	for _, x := range a {
		for _, y := range b {
			switch {
			case x == y:
			case (y > x) == (def.Better == "higher"):
				wins++
			default:
				losses++
			}
		}
	}
	if 10*wins >= 9*(wins+losses) && -change > spread(a) {
		return better, change
	}
	if spread(a) > def.Bound || spread(b) > def.Bound {
		return unresolved, change
	}
	return same, change
}

func loadRunSet(path string) (runSet, error) {
	var rs runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(data, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// values collects one metric over a workload's untraced runs (or its
// trace runs, for a per-layer metric); ok is false when any of them
// lacks it.
func values(runs []runRecord, workload, name string, trace bool) (v []float64, ok bool) {
	for _, r := range runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		x, has := r.Measured.Metrics[name]
		if !has {
			return nil, false
		}
		v = append(v, x)
	}
	return v, len(v) > 0
}

// compareFiles prints one row per workload and metric and reports
// whether any end-to-end metric came out worse. A run that failed its
// output checks makes its set invalid.
func compareFiles(w io.Writer, bench benchmarkFile, pathA, pathB string) (anyWorse bool, err error) {
	a, err := loadRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return false, err
	}
	for _, rs := range []runSet{a, b} {
		for _, r := range rs.Runs {
			if !r.Result.Correct {
				return false, fmt.Errorf("%s seed %d failed its output checks (%d of %d); the set is invalid",
					r.Workload, r.Seed, r.Result.Failed, r.Result.Attempted)
			}
		}
	}
	fmt.Fprintf(w, "%-14s %-30s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "bound", "verdict")
	for _, wl := range bench.Workloads {
		row := func(def metricDef, bounded bool) {
			va, okA := values(a.Runs, wl.Name, def.Name, !bounded)
			vb, okB := values(b.Runs, wl.Name, def.Name, !bounded)
			if !okA || !okB {
				return
			}
			v, change := judge(def, va, vb)
			bound := fmt.Sprintf("%.0f%%", 100*def.Bound)
			if !bounded {
				bound = "-"
				if v != same {
					v = noBound
				}
			}
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-14s %-30s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %6s  %s\n",
				wl.Name, def.Name, median(va), median(vb), 100*change, 100*spread(va), 100*spread(vb), bound, v)
		}
		for _, def := range bench.EndToEnd {
			row(def, true)
		}
		for _, def := range bench.PerLayer {
			row(def, false)
		}
	}
	return anyWorse, nil
}
