package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	var v []float64
	for i := 1000; i >= 1; i-- {
		v = append(v, float64(i))
	}
	d := summarise(v)
	if d.N != 1000 || d.P50 != 500 || d.P90 != 900 || d.P99 != 990 || d.Max != 1000 {
		t.Errorf("summarise(1..1000) = %+v", d)
	}
	if !d.HasP90 || !d.HasP99 {
		t.Errorf("1000 samples leave 10 beyond p99: want both tails, got %+v", d)
	}
	// 999 samples leave 9.99 beyond p99; 100 leave exactly 10 beyond
	// p90; 99 leave fewer.
	for _, c := range []struct {
		n        int
		p90, p99 bool
	}{{999, true, false}, {100, true, false}, {99, false, false}, {0, false, false}} {
		d := summarise(v[:c.n])
		if d.HasP90 != c.p90 || d.HasP99 != c.p99 {
			t.Errorf("n=%d: tails p90=%v p99=%v, want %v %v", c.n, d.HasP90, d.HasP99, c.p90, c.p99)
		}
	}
	if got := (dist{Max: 7}).tail(); got != 7 {
		t.Errorf("tail with no supported percentile = %v, want the max", got)
	}
	if got := percentile([]float64{3}, 99); got != 3 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

// The spread mmload prints must be the number the driver computes
// with Python's statistics.quantiles(v, n=4) and statistics.median.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3.1, 2.0, 8.5, 4.4, 9.9})
	if math.Abs(q1-2.55) > 1e-12 || math.Abs(q3-9.2) > 1e-12 {
		t.Errorf("quartiles = %v, %v; Python gives 2.55, 9.2", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", s)
	}
}

func TestScriptIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := genScript(w, 5, 2), genScript(w, 5, 2)
		if a.sha256() != b.sha256() || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different scripts", w.Name)
		}
		if c := genScript(w, 6, 2); c.sha256() == a.sha256() {
			t.Errorf("%s: seeds 5 and 6 gave the same script", w.Name)
		}
		if a.units() == 0 {
			t.Errorf("%s: empty script", w.Name)
		}
		// -seconds scales the fixed counts.
		if long := genScript(w, 5, 4); long.units() != 2*a.units() {
			t.Errorf("%s: %d units at 4 s, %d at 2 s", w.Name, long.units(), a.units())
		}
	}
}

func TestScriptShapes(t *testing.T) {
	vod, _ := findWorkload("wire-vod")
	var kinds [numOpKinds]int
	for _, op := range genScript(vod, 1, 10).Vod {
		kinds[op.Kind]++
		if op.Rope < 0 || op.Rope >= vod.Ropes || op.Start+op.Dur > ropeSeconds*1e9 {
			t.Fatalf("op out of the catalogue: %+v", op)
		}
	}
	n := float64(vodOpsPerSec * 10)
	for k, want := range map[opKind]float64{opPlay: 0.55, opFetch: 0.25, opInfo: 0.10, opListRopes: 0.05, opMetrics: 0.05} {
		if got := float64(kinds[k]) / n; math.Abs(got-want) > 0.03 {
			t.Errorf("%v share %.3f, want %.2f", k, got, want)
		}
	}
	for _, name := range []string{"serve-striped", "serve-cache"} {
		w, _ := findWorkload(name)
		stops, pauses, resumes := 0, 0, 0
		for _, ep := range genScript(w, 1, 1).Epochs {
			last := ep.Events[0].At
			for _, ev := range ep.Events {
				if ev.At < last {
					t.Fatalf("%s: events out of order", name)
				}
				last = ev.At
				switch ev.Kind {
				case evStop:
					stops++
				case evPause:
					pauses++
				case evResume:
					resumes++
				}
			}
		}
		if pauses != resumes {
			t.Errorf("%s: %d pauses, %d resumes", name, pauses, resumes)
		}
		// serve-cache carries no STOP or PAUSE (README, "Known gaps").
		if (w.CacheMB > 0) != (stops+pauses == 0) {
			t.Errorf("%s: %d stops, %d pauses", name, stops, pauses)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	// rpc [0,100] with no children; twin [100,400] holding play_call
	// [110,160] (which holds compile [120,140]) and rounds [200,380]
	// counting 9 rounds.
	spans := []span{
		{ID: 0, Parent: -1, Name: "client.rpc.play", Start: 0, End: 100, Count: 1},
		{ID: 1, Parent: -1, Name: "twin.play", Start: 100, End: 400, Count: 1},
		{ID: 2, Parent: 1, Name: "core.play_call", Start: 110, End: 160, Count: 1},
		{ID: 3, Parent: 2, Name: "rope.compile_play", Start: 120, End: 140, Count: 1},
		{ID: 4, Parent: 1, Name: "msm.rounds", Start: 200, End: 380, Count: 9},
	}
	lt := selfTimes(spans)
	want := map[string]layerTime{
		"client.rpc.play":   {Spans: 1, Calls: 1, TotalNs: 100, SelfNs: 100},
		"twin.play":         {Spans: 1, Calls: 1, TotalNs: 300, SelfNs: 300 - 50 - 180},
		"core.play_call":    {Spans: 1, Calls: 1, TotalNs: 50, SelfNs: 30},
		"rope.compile_play": {Spans: 1, Calls: 1, TotalNs: 20, SelfNs: 20},
		"msm.rounds":        {Spans: 1, Calls: 9, TotalNs: 180, SelfNs: 180},
	}
	if !reflect.DeepEqual(lt, want) {
		t.Errorf("selfTimes = %+v\nwant %+v", lt, want)
	}
	if got := spanMeanUs(lt, "msm.rounds"); got != 0.18 {
		t.Errorf("spanMeanUs = %v", got)
	}
}

func TestTracerNestsAndNilIsInert(t *testing.T) {
	var none *tracer
	none.setOp(3)
	none.end(none.begin("x")) // must not panic

	tr := newTracer()
	tr.setOp(7)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.endCount(inner, 4)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].Parent != -1 ||
		tr.spans[1].Count != 4 || tr.spans[1].Op != 7 || len(tr.stack) != 0 {
		t.Errorf("spans = %+v, stack %v", tr.spans, tr.stack)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[0].Start > tr.spans[1].Start {
		t.Errorf("inner span not inside outer: %+v", tr.spans)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "admitted", Better: "higher", Bound: 0.05}
	exact := metricDef{Name: "count", Better: "lower", Bound: 0}
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want verdict
	}{
		{"within the bound", lower, steady, []float64{103, 104, 102, 103, 103.5}, same},
		{"median worse than the bound", lower, steady, []float64{112, 113, 111, 112, 112.5}, worse},
		{"better by more than the parent's spread", lower, steady, []float64{90, 91, 92, 90.5, 91.2}, better},
		{"spread wider than the bound, overlapping", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 104}, unresolved},
		{"wide spread but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{50, 60, 70, 55, 65}, better},
		{"higher is better: drop beyond the bound", higher, []float64{34, 34.2, 33.9}, []float64{31, 31.2, 30.9}, worse},
		{"higher is better: rise", higher, []float64{34, 34.2, 33.9}, []float64{36, 36.2, 35.9}, better},
		{"model ledger identical", exact, []float64{52, 52, 52}, []float64{52, 52, 52}, same},
		{"model ledger moved with bound 0", exact, []float64{52, 52, 52}, []float64{53, 53, 53}, worse},
	} {
		if got, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json is the only table of metrics; check it against what
// the code can produce and against the driver's contract.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above this module:", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef(nil), b.EndToEnd...), b.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if len(d.Name) > 64 || len(d.Unit) == 0 || len(d.Unit) > 16 {
			t.Errorf("%s: name or unit out of limits", d.Name)
		}
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(b.EndToEnd), len(b.PerLayer))
	}
	if runs := 4 + 22*len(b.Workloads); runs*b.RunSeconds > 3420 {
		t.Errorf("%d runs of %d s cannot fit the driver's 3420 s", runs, b.RunSeconds)
	}
}
