package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/obs"
)

// common is the state both kinds of pass keep.
type common struct {
	w  workloadSpec
	sc *script
	tr *tracer
	m  *measured

	units, ops int
	wall       time.Duration
	truncated  bool
	// opUs is, per batch of the script (an epoch, an edit cycle, 50
	// wire-vod ops), the batch's wall time ÷ its ops. The end-to-end
	// op_us is its median: one slow batch (a collector cycle, a noisy
	// neighbour) moves a total, not a median.
	opUs []float64
	// Registry snapshots and disk counters around the timed phase. A
	// wire pass reads the registry over METRICS; only passes with a
	// file system in this process have disk counters.
	before, after         obs.Snapshot
	diskBefore, diskAfter disk.Stats
	memBefore, memAfter   runtime.MemStats
	cacheBytesPeak        int64
	virtual, idle         time.Duration // manager clock and idle time, summed over managers
	kMax                  int
}

func (c *common) counterDelta(name string) float64 {
	return counterSum(c.after, name) - counterSum(c.before, name)
}

// noteCacheBytes tracks the peak of the cache residency gauge over the
// snapshots a pass happens to see.
func (c *common) noteCacheBytes(s obs.Snapshot) {
	if v, ok := s.Gauge("mmfs_cache_bytes"); ok && v > c.cacheBytesPeak {
		c.cacheBytesPeak = v
	}
}

// setupRepeats is how many times a measured run sets up; setup_s is
// the median, so one slow start does not decide it.
const setupRepeats = 3

// outcome is everything a workload run hands to the reporter.
type outcome struct {
	script    *script
	scriptSHA string
	measured  *measured            // the untraced pass
	traced    *measured            // the traced pass (trace runs only)
	layers    map[string]layerTime // span totals of the traced pass
	spans     []span
}

// runWorkload generates the script, then runs the measured pass and,
// for a trace run, the traced pass and the microloops behind the
// per-layer metrics.
func runWorkload(env *environment, w workloadSpec, seed int64, seconds int, trace bool) (*outcome, error) {
	sc := genScript(w, seed, seconds)
	out := &outcome{script: sc, scriptSHA: sc.sha256()}
	fmt.Fprintf(env.log, "script %s seed %d: %d units, sha256 %s\n", w.Name, seed, sc.units(), out.scriptSHA)
	deadline := time.Duration(seconds) * time.Second
	repeats := setupRepeats
	if trace {
		repeats = 1 // setup_s belongs to the untraced run
	}
	var err error
	if w.Wire {
		err = runWire(env, out, w, sc, deadline, repeats, trace)
	} else {
		err = runServe(out, w, sc, deadline, repeats, trace)
	}
	if err != nil {
		return nil, err
	}
	if trace {
		path := filepath.Join(env.buildDir, "trace-"+w.Name+".json")
		if err := writeTrace(path, traceFile{Workload: w.Name, Seed: seed, Script: out.scriptSHA, Layers: out.layers, Spans: out.spans}); err != nil {
			return nil, err
		}
		fmt.Fprintf(env.log, "trace: %d spans written to %s\n", len(out.spans), path)
	}
	return out, nil
}

func runWire(env *environment, out *outcome, w workloadSpec, sc *script, deadline time.Duration, repeats int, trace bool) error {
	bin, err := buildDaemon(env)
	if err != nil {
		return err
	}
	a := &wirePass{common: common{w: w, sc: sc, m: newMeasured()}}
	out.measured = a.m
	defer a.teardown()
	for i := 0; i < repeats; i++ {
		a.teardown()
		d, err := a.setup(bin)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		a.m.SetupS = append(a.m.SetupS, d.Seconds())
	}
	if err := a.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := a.run(deadline); err != nil {
		return err
	}
	a.daemonRSSMB = peakRSSMB(a.srv.pid())
	a.teardown()
	a.endToEnd()
	a.m.set("setup_s", median(a.m.SetupS))
	if !trace {
		return nil
	}

	// Traced pass: the same script against internal/server hosted in
	// this process, every op mirrored onto the twin.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	tr := newTracer()
	b := &wirePass{common: common{w: w, sc: sc, m: newMeasured(), tr: tr}, tw: &twin{tr: tr}, clips: a.clips}
	out.traced = b.m
	defer b.teardown()
	if _, err := b.setup(""); err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	if err := b.warm(); err != nil {
		return fmt.Errorf("traced warm-up: %w", err)
	}
	b.diskBefore = b.tw.fs.Disk().Stats()
	if err := b.run(deadline); err != nil {
		return err
	}
	b.diskAfter = b.tw.fs.Disk().Stats()
	b.virtual, b.idle = b.tw.fs.Manager().Now(), b.tw.fs.Manager().Stats().IdleTime
	b.kMax = b.tw.kMax
	b.teardown()
	b.endToEnd()
	out.spans, out.layers = tr.spans, selfTimes(tr.spans)
	sameModel(a.m, b.m)

	var residents [][]int
	if b.plays > 0 { // a wire PLAY meets at most its own video stream in the manager
		residents = [][]int{make([]int, max(1, w.Disks)), make([]int, max(1, w.Disks))}
		residents[1][0] = 1
	}
	mc, err := measureLayers(w, residents)
	if err != nil {
		return err
	}
	fetchUnits := videoRate
	c := makeClip(ropeSeconds, 1)
	if w.Name == "wire-edit" {
		fetchUnits, c = (insertSecs+2)*videoRate, a.clips[0]
	}
	mc.codec = codecCosts(fetchUnits, w.Ropes, c, a.after)
	var counts [numOpKinds]int
	for k := range counts {
		counts[k] = len(a.lat[k])
	}
	mc.weighCodec(counts)
	wireLayers(a, b, out.layers, mc)
	return nil
}

func runServe(out *outcome, w workloadSpec, sc *script, deadline time.Duration, repeats int, trace bool) error {
	// The timed phase runs in a process that has built exactly one file
	// system, the state library users run in. A second set-up in the same
	// process would leave gigabytes of simulated-disk pages for the
	// collector, and both it and the epochs in its wake would measure the
	// Go scavenger, not mmfs; so the repeat set-ups run first, each in a
	// child process of this binary that exits before the next starts.
	a := &servePass{common: common{w: w, sc: sc, m: newMeasured()}}
	out.measured = a.m
	for i := 1; i < repeats; i++ {
		s, err := setupInChild(w, sc)
		if err != nil {
			return fmt.Errorf("child set-up %d: %w", i, err)
		}
		a.m.SetupS = append(a.m.SetupS, s)
	}
	d, err := a.setup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	a.m.SetupS = append(a.m.SetupS, d.Seconds())
	if err := a.warm(); err != nil {
		return err
	}
	a.run(deadline)
	a.endToEnd()
	a.m.set("setup_s", median(a.m.SetupS))
	if !trace {
		return nil
	}

	tr := newTracer()
	b := &servePass{common: common{w: w, sc: sc, m: newMeasured(), tr: tr}}
	out.traced = b.m
	a.fs = nil
	debug.FreeOSMemory()
	if _, err := b.setup(); err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	if err := b.warm(); err != nil {
		return err
	}
	b.run(deadline)
	b.endToEnd()
	out.spans, out.layers = tr.spans, selfTimes(tr.spans)
	sameModel(a.m, b.m)
	mc, err := measureLayers(w, b.residents)
	if err != nil {
		return err
	}
	serveLayers(a, b, out.layers, mc)
	return nil
}

// modelCounts are the counters that must repeat exactly between two
// passes over one script.
var modelCounts = []string{"units", "ops", "plays", "rounds", "blocks_delivered", "cache_hits", "late_violations"}

// sameModel fails the traced pass if its model ledger differs from the
// measured pass's: the traced pass replaces fs.Play by a span-by-span
// replica and must not have changed what was served.
func sameModel(a, b *measured) {
	if a.Truncated || b.Truncated {
		return // different amounts of work were done
	}
	for _, name := range modelCounts {
		if a.Counts[name] != b.Counts[name] {
			b.fail("model ledger differs between passes: %s %d untraced, %d traced", name, a.Counts[name], b.Counts[name])
		}
	}
}

// setupInChild runs one serve-* set-up in a fresh process (this binary
// with -setup-only) and returns the seconds it reports.
func setupInChild(w workloadSpec, sc *script) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(sc.Seed, 10),
		"-seconds", strconv.Itoa(sc.Seconds), "-setup-only").Output()
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// setupOnly is the child side of setupInChild.
func setupOnly(w workloadSpec, seed int64, seconds int) error {
	if w.Wire {
		return errors.New("-setup-only is for the in-process workloads")
	}
	p := &servePass{common: common{w: w, sc: genScript(w, seed, seconds), m: newMeasured()}}
	d, err := p.setup()
	if err != nil {
		return err
	}
	fmt.Printf("%.9f\n", d.Seconds())
	return nil
}
