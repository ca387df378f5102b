// Command mmload is the repository's benchmark: it runs one workload
// from a seeded, fixed script, checks the outputs, and prints every
// metric by name with its unit. BENCHMARK.json at the repository root
// is its contract (workloads, metrics, bounds); README.md in this
// directory explains the design.
//
//	mmload -workload wire-vod -seed 1            end-to-end metrics
//	mmload -workload wire-vod -seed 1 -trace 1   per-layer metrics + trace file
//	mmload -workload wire-vod -repeat 5 -json A.json
//	mmload -compare A.json B.json                verdict per metric, exit 1 on "worse"
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json, the single table of metric names,
// units, directions and bounds; mmload holds no second copy.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// environment is where this process runs: the checkout root (the
// directory holding BENCHMARK.json), the build directory under it, and
// the parsed contract.
type environment struct {
	root, buildDir string
	bench          benchmarkFile
	log            io.Writer
}

// moduleDir is the directory of this module inside the checkout.
func (env *environment) moduleDir() string { return filepath.Join(env.root, "bench", "mmload") }

// findEnvironment walks up from the working directory to the checkout
// root.
func findEnvironment() (*environment, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			env := &environment{root: dir, buildDir: filepath.Join(dir, ".bench_build"), log: os.Stderr}
			if err := json.Unmarshal(data, &env.bench); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			if err := os.MkdirAll(env.buildDir, 0o755); err != nil {
				return nil, err
			}
			return env, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in this directory or any parent")
		}
		dir = parent
	}
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// machineInfo describes where numbers were taken.
type machineInfo struct {
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu"`
	GoVersion string `json:"go"`
	OS        string `json:"os"`
}

func describeMachine() machineInfo {
	mi := machineInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				mi.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return mi
}

// runRecord is one run as -json stores it and -compare reads it.
type runRecord struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   int                  `json:"seconds"`
	Trace     bool                 `json:"trace"`
	ScriptSHA string               `json:"script_sha256"`
	Units     int                  `json:"script_units"`
	Result    resultLine           `json:"result"`
	Measured  *measured            `json:"measured"`
	Traced    *measured            `json:"traced,omitempty"`
	Layers    map[string]layerTime `json:"layers,omitempty"`
}

// runSet is a -json file: the runs of one invocation and the machine.
type runSet struct {
	Machine machineInfo `json:"machine"`
	Runs    []runRecord `json:"runs"`
}

// emit selects the metrics BENCHMARK.json lists for the mode. A
// missing end-to-end metric is a harness bug; a per-layer metric the
// workload never produces reads 0.
func emit(env *environment, out *outcome, trace bool) (resultLine, error) {
	m := out.measured
	res := resultLine{Attempted: m.Attempted, Failed: m.Failed, Metrics: map[string]metricValue{}}
	if out.traced != nil {
		res.Attempted += out.traced.Attempted
		res.Failed += out.traced.Failed
	}
	res.Correct = res.Failed == 0
	defs := env.bench.EndToEnd
	if trace {
		defs = env.bench.PerLayer
	}
	for _, d := range defs {
		v, ok := m.Metrics[d.Name]
		if !ok && !trace {
			return res, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// printText writes the human-readable report: each emitted metric by
// name with its unit, then the timing distributions with their sample
// counts and the model counters.
func printText(w io.Writer, env *environment, rec runRecord, trace bool) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %v  script %s (%d units)\n",
		rec.Workload, rec.Seed, rec.Seconds, trace, rec.ScriptSHA[:12], rec.Units)
	defs := env.bench.EndToEnd
	if trace {
		defs = env.bench.PerLayer
	}
	for _, d := range defs {
		mv := rec.Result.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, mv.Value, mv.Unit)
	}
	m := rec.Measured
	fmt.Fprintf(w, "timings (n = samples; tails shown where >= %d samples lie beyond them):\n", minTail)
	for _, name := range sortedNames(m.Dists) {
		d := m.Dists[name]
		if d.N == 0 {
			continue
		}
		line := fmt.Sprintf("  %-26s n=%-6d p50 %.6g", name, d.N, d.P50)
		if d.HasP90 {
			line += fmt.Sprintf("  p90 %.6g", d.P90)
		}
		if d.HasP99 {
			line += fmt.Sprintf("  p99 %.6g", d.P99)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "model ledger:")
	for _, name := range sortedNames(m.Counts) {
		fmt.Fprintf(w, " %s=%d", name, m.Counts[name])
	}
	fmt.Fprintf(w, "\nwall %.3fs  set-ups %v  truncated %v  attempted %d  failed %d\n",
		m.WallS, m.SetupS, m.Truncated, rec.Result.Attempted, rec.Result.Failed)
	for _, mm := range []*measured{m, rec.Traced} {
		if mm == nil {
			continue
		}
		for _, p := range mm.Problems {
			fmt.Fprintf(w, "  FAILED: %s\n", p)
		}
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: wire-vod, wire-edit, serve-striped, serve-cache")
		seed     = flag.Int64("seed", defaultSeed, "script seed")
		seconds  = flag.Int("seconds", 0, "run length the script is sized for, and its deadline (default: BENCHMARK.json run_seconds)")
		trace    = flag.Int("trace", 0, "1 = also run the traced pass; print per-layer metrics and write the trace file")
		repeat   = flag.Int("repeat", 1, "runs to make, seeds seed, seed+1, …")
		jsonOut  = flag.String("json", "", "add the full run records to this file (created if absent), for -compare")
		compare  = flag.Bool("compare", false, "compare two -json files given as arguments")
		setupOne = flag.Bool("setup-only", false, "set a serve-* workload up once, print the seconds it took, and exit (used by the parent run for its repeat set-ups)")
	)
	flag.Parse()
	env, err := findEnvironment()
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: mmload -compare A.json B.json"))
		}
		worse, err := compareFiles(os.Stdout, env.bench, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*workload)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = env.bench.RunSeconds
	}
	if *setupOne {
		if err := setupOnly(w, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	if *repeat > 1 {
		os.Exit(repeatRuns(w, *seed, *seconds, *trace, *repeat, *jsonOut))
	}

	// A run that hangs (a livelocked manager, a wedged daemon) must fail
	// inside the driver's time limit, not sit there.
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "mmload: run exceeded %v; giving up\n", runLimit)
		os.Exit(3)
	})
	out, err := runWorkload(env, w, *seed, *seconds, *trace != 0)
	if err != nil {
		fatal(err)
	}
	res, err := emit(env, out, *trace != 0)
	if err != nil {
		fatal(err)
	}
	rec := runRecord{Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
		ScriptSHA: out.scriptSHA, Units: out.script.units(), Result: res,
		Measured: out.measured, Traced: out.traced, Layers: out.layers}
	printText(os.Stdout, env, rec, *trace != 0)
	if *jsonOut != "" {
		if err := appendRun(*jsonOut, rec); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// repeatRuns makes n runs with seeds seed, seed+1, …, each in a fresh
// process of this binary, the way the driver makes them: a run that
// shares a process with the gigabytes its predecessor left behind is a
// different measurement. It returns the worst exit code.
func repeatRuns(w workloadSpec, seed int64, seconds, trace, n int, jsonOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	worst := 0
	for i := 0; i < n; i++ {
		args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(i), 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
		if jsonOut != "" {
			args = append(args, "-json", jsonOut)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fatal(err)
			}
			worst = max(worst, exit.ExitCode())
		}
	}
	return worst
}

// appendRun adds one run record to a -json file, creating it if need
// be.
func appendRun(path string, rec runRecord) error {
	set, err := loadRunSet(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	set.Machine = describeMachine()
	set.Runs = append(set.Runs, rec)
	buf, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Seeds: runs default to defaultSeed; heldOutSeed is never used while
// a change is being written, so a claimed gain can be confirmed on
// inputs nobody tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// runLimit is how long one run may take, set-up, both passes and
// microloops included.
const runLimit = 170 * time.Second

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mmload:", err)
	os.Exit(2)
}
