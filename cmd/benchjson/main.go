// Command benchjson converts `go test -bench` output on stdin into a
// JSON file, so benchmark runs (and the experiment metrics they report
// via b.ReportMetric, e.g. disk_blocks and cache_hit_pct) can be
// archived and diffed across commits. Driven by `make bench`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name    string             `json:"name"`
	N       int64              `json:"n"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Summary aggregates the deterministic simulated-disk metrics across
// all benchmarks in a report: total virtual disk busy milliseconds,
// total blocks transferred, and the mean interval-cache hit ratio.
// These come from the simulation's virtual clock, so they are stable
// across CI runners and safe to gate regressions on.
type Summary struct {
	DiskBusyMs  float64 `json:"disk_busy_ms"`
	DiskBlocks  float64 `json:"disk_blocks"`
	CacheHitPct float64 `json:"cache_hit_pct,omitempty"`
}

// Report is the file benchjson writes.
type Report struct {
	Date       string      `json:"date"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Summary    *Summary    `json:"summary,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default BENCH_<date>.json)")
	compare := flag.Bool("compare", false, "compare two report files (baseline new) instead of reading bench output")
	tolerance := flag.Float64("tolerance", 0.15, "relative regression tolerance for -compare")
	stripWallclock := flag.Bool("strip-wallclock", false, "omit ns/op from the written report (for committed baselines: wall clock is not comparable across runners, the simulated-disk metrics are)")
	subset := flag.String("subset", "", "with -compare, gate only benchmarks whose name matches this pattern (as go test -bench reads it: a regexp matched anywhere in the name, A|B|C for several)")
	flag.Parse()

	if *compare {
		if _, err := regexp.Compile(*subset); err != nil || flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-tolerance 0.15] [-subset 'A|B'] baseline.json new.json")
			os.Exit(2)
		}
		base, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		cur, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		regs := compareReports(base, cur, *tolerance, *subset)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("benchjson: %d benchmarks within %.0f%% of baseline\n", len(cur.Benchmarks), *tolerance*100)
		return
	}

	rep := Report{Date: time.Now().Format("2006-01-02")}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}

	summarize(&rep)
	if *stripWallclock {
		for i := range rep.Benchmarks {
			rep.Benchmarks[i].NsPerOp = 0
		}
	}
	path := *out
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: encode: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: %d benchmarks -> %s\n", len(rep.Benchmarks), path)
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8  10  123 ns/op  4.0 disk_blocks  75.0 cache_hit_pct
//
// i.e. a name, the iteration count, then value/unit pairs.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		// Strip the GOMAXPROCS suffix go test appends.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, N: n, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		if fields[i+1] == "ns/op" {
			b.NsPerOp = v
		} else {
			b.Metrics[fields[i+1]] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}
