package obs

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mmfs_test_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("mmfs_test_total") != c {
		t.Fatal("Counter did not return the registered instance")
	}
	g := r.Gauge("mmfs_test_gauge")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

// TestHistogramBucketBoundaries pins the boundary semantics: an
// observation equal to an upper bound lands in that bucket (le =
// less-or-equal), one just above lands in the next, and values past
// the last bound only appear in +Inf (the snapshot Count).
// TestNilHandlesAreInert: a subsystem never wired to a registry holds
// nil handles and publishes through them unguarded.
func TestNilHandlesAreInert(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	var g *Gauge
	g.Set(1)
	g.Inc()
	g.Dec()
	g.Add(2)
	var h *Histogram
	h.Observe(0.5)
	StartTimer().ObserveInto(h)
	var ring *TraceRing
	ring.Append(RoundTrace{Round: 1})
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mmfs_test_seconds", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{
		0.0005,  // → bucket 0
		0.001,   // boundary → bucket 0
		0.0011,  // → bucket 1
		0.01,    // boundary → bucket 1
		0.1,     // boundary → bucket 2
		0.5, 99, // → +Inf only
	} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	cum, n, sum := h.snapshot()
	want := []uint64{2, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative bucket %d (le=%g) = %d, want %d", i, h.uppers[i], cum[i], w)
		}
	}
	if n != 7 {
		t.Fatalf("snapshot count = %d, want 7", n)
	}
	wantSum := 0.0005 + 0.001 + 0.0011 + 0.01 + 0.1 + 0.5 + 99
	if diff := sum - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %g, want %g", sum, wantSum)
	}
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted buckets did not panic")
		}
	}()
	NewRegistry().Histogram("bad", []float64{1, 0.5})
}

func TestSnapshotLookupAndSorting(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("z_gauge").Set(-3)
	s := r.Snapshot()
	if s.Counters[0].Name != "a_total" || s.Counters[1].Name != "b_total" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if v, ok := s.Counter("b_total"); !ok || v != 2 {
		t.Fatalf("Counter lookup = %d,%v", v, ok)
	}
	if v, ok := s.Gauge("z_gauge"); !ok || v != -3 {
		t.Fatalf("Gauge lookup = %d,%v", v, ok)
	}
	if _, ok := s.Counter("missing"); ok {
		t.Fatal("missing counter reported present")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(`mmfs_requests_total{op="Play"}`).Add(3)
	r.Counter(`mmfs_requests_total{op="Stats"}`).Add(1)
	r.Gauge("mmfs_k").Set(4)
	h := r.Histogram("mmfs_disk_read_seconds", []float64{0.01, 0.05})
	h.Observe(0.004)
	h.Observe(0.04)
	h.Observe(1.5)
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE mmfs_requests_total counter",
		`mmfs_requests_total{op="Play"} 3`,
		`mmfs_requests_total{op="Stats"} 1`,
		"# TYPE mmfs_k gauge",
		"mmfs_k 4",
		"# TYPE mmfs_disk_read_seconds histogram",
		`mmfs_disk_read_seconds_bucket{le="0.01"} 1`,
		`mmfs_disk_read_seconds_bucket{le="0.05"} 2`,
		`mmfs_disk_read_seconds_bucket{le="+Inf"} 3`,
		"mmfs_disk_read_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per base name, even with two labeled series.
	if strings.Count(out, "# TYPE mmfs_requests_total counter") != 1 {
		t.Fatalf("duplicated TYPE line:\n%s", out)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 1; i <= 6; i++ {
		ring.Append(RoundTrace{Round: uint64(i)})
	}
	got := ring.Snapshot()
	if len(got) != 4 {
		t.Fatalf("%d rounds held, want 4", len(got))
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if got[i].Round != want {
			t.Fatalf("snapshot[%d].Round = %d, want %d (oldest first)", i, got[i].Round, want)
		}
	}
}

func TestHandlerServesMetricsAndTrace(t *testing.T) {
	r := NewRegistry()
	r.Counter("mmfs_rounds_total").Add(9)
	ring := NewTraceRing(8)
	ring.Append(RoundTrace{Round: 1, K: 2, BlocksRead: 5, DiskBusyNs: 1e6})
	srv := httptest.NewServer(Handler(r, ring))
	defer srv.Close()

	get := func(path string) string {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		data, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	body := get("/metrics")
	if !strings.Contains(body, "mmfs_rounds_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	body = get("/trace")
	if !strings.Contains(body, `"round": 1`) || !strings.Contains(body, `"disk_busy_ns": 1000000`) {
		t.Fatalf("/trace missing round record:\n%s", body)
	}
}

// TestConcurrentAccess hammers every metric type from many goroutines
// while snapshots run; the -race CI subset executes this with the race
// detector to prove the registry is scrape-safe.
func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	ring := NewTraceRing(64)
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("mmfs_conc_total")
			g := r.Gauge("mmfs_conc_gauge")
			h := r.Histogram("mmfs_conc_seconds", []float64{0.001, 0.01, 0.1, 1})
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(float64(i%100) / 50)
				ring.Append(RoundTrace{Round: uint64(i)})
				// Interleave labeled-series creation with updates.
				r.Counter(fmt.Sprintf(`mmfs_conc_labeled_total{w="%d"}`, w)).Inc()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s := r.Snapshot()
			var b strings.Builder
			if err := s.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			ring.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got, _ := r.Snapshot().Counter("mmfs_conc_total"); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Histogram("mmfs_conc_seconds", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}
