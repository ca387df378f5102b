package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"mmfs/internal/cache"
	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/obs"
	"mmfs/internal/rope"
	"mmfs/internal/wire"
)

// TestSnapshotWireRoundTrip exercises EncodeSnapshot/DecodeSnapshot on
// a registry holding every metric kind, including labeled series and a
// histogram with observations straddling its bounds.
func TestSnapshotWireRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("mmfs_rounds_total").Add(7)
	reg.Counter(`mmfs_requests_total{op="Play"}`).Add(3)
	reg.Gauge("mmfs_k").Set(-2)
	h := reg.Histogram("mmfs_disk_read_seconds", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	e := wire.NewEncoder()
	wire.EncodeSnapshot(e, reg.Snapshot())
	d := wire.NewDecoder(e.Bytes())
	got := wire.DecodeSnapshot(d)
	if d.Err() != nil {
		t.Fatalf("decode: %v", d.Err())
	}

	if v, ok := got.Counter("mmfs_rounds_total"); !ok || v != 7 {
		t.Fatalf("rounds counter = %d, %v; want 7, true", v, ok)
	}
	if v, ok := got.Counter(`mmfs_requests_total{op="Play"}`); !ok || v != 3 {
		t.Fatalf("labeled counter = %d, %v; want 3, true", v, ok)
	}
	if v, ok := got.Gauge("mmfs_k"); !ok || v != -2 {
		t.Fatalf("gauge = %d, %v; want -2, true", v, ok)
	}
	if len(got.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(got.Histograms))
	}
	hv := got.Histograms[0]
	if hv.Name != "mmfs_disk_read_seconds" || hv.Count != 3 || hv.Sum != 5.055 {
		t.Fatalf("histogram %+v", hv)
	}
	if len(hv.Buckets) != 2 || hv.Buckets[0] != 1 || hv.Buckets[1] != 2 {
		t.Fatalf("buckets %v, want [1 2]", hv.Buckets)
	}
}

// TestDecodeSnapshotTruncated checks the decoder reports truncation via
// its sticky error instead of hanging or panicking.
func TestDecodeSnapshotTruncated(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("a").Inc()
	e := wire.NewEncoder()
	wire.EncodeSnapshot(e, reg.Snapshot())
	d := wire.NewDecoder(e.Bytes()[:3])
	wire.DecodeSnapshot(d)
	if d.Err() == nil {
		t.Fatal("truncated snapshot decoded without error")
	}
}

// TestMetricsOverWire drives real work through the server and checks
// the METRICS op reflects it: per-op request counters, the storage
// manager's round/block series, and the disk read histogram.
func TestMetricsOverWire(t *testing.T) {
	srv, c, _ := serve(t, core.Options{}, nil)
	fs := srv.fs
	id, _, err := c.RecordClip("venkat", media.NewVideoSource(60, 18000, 30, 41), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Play("venkat", id, rope.VideoOnly, 0, 0, 2, ""); err != nil {
		t.Fatal(err)
	}

	snap, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if v, ok := snap.Counter(`mmfs_requests_total{op="Play"}`); !ok || v != 1 {
		t.Fatalf("play request counter = %d, %v; want 1", v, ok)
	}
	rounds, ok := snap.Counter("mmfs_rounds_total")
	if !ok || rounds == 0 {
		t.Fatalf("rounds counter = %d, %v; want > 0", rounds, ok)
	}
	if rounds != fs.Manager().Stats().Rounds {
		t.Fatalf("rounds counter %d != manager stats %d", rounds, fs.Manager().Stats().Rounds)
	}
	blocks, _ := snap.Counter("mmfs_blocks_fetched_total")
	if blocks != fs.Manager().Stats().BlocksFetched {
		t.Fatalf("blocks counter %d != manager stats %d", blocks, fs.Manager().Stats().BlocksFetched)
	}
	busy, _ := snap.Counter("mmfs_disk_busy_ns_total")
	if busy == 0 {
		t.Fatal("disk busy counter is zero after playback")
	}
	var hist *obs.HistogramValue
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "mmfs_disk_read_seconds" {
			hist = &snap.Histograms[i]
		}
	}
	if hist == nil || hist.Count == 0 {
		t.Fatalf("disk read histogram missing or empty: %+v", snap.Histograms)
	}

	// The same work must be visible in the trace ring.
	trs := fs.Trace().Snapshot()
	if len(trs) == 0 {
		t.Fatal("trace ring empty after playback")
	}
	var traced uint64
	for _, tr := range trs {
		traced += tr.BlocksRead
	}
	if traced != blocks {
		t.Fatalf("trace blocks %d != counter %d", traced, blocks)
	}

	// And the snapshot must render as Prometheus text.
	var sb strings.Builder
	if err := snap.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE mmfs_rounds_total counter",
		"# TYPE mmfs_disk_read_seconds histogram",
		`mmfs_disk_read_seconds_bucket{le="+Inf"}`,
		// The METRICS request itself is in flight while the snapshot
		// is taken.
		"mmfs_server_inflight_requests 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// Managers share the file system's registry, and a round writes a gauge
// only when its value moves: so a fresh manager must write every gauge
// its rounds publish. After a PLAY, with a leader and a cache-served
// follower mid-play, and again after NewManager and a PLAY on the new
// manager, the METRICS reply's round gauges read what the manager and its
// last trace record say, and the cache's residency gauges what the
// cache's Stats say.
func TestMetricsGaugesFollowTheManager(t *testing.T) {
	srv, c, _ := serve(t, core.Options{Disks: 4, CacheMB: 16}, nil)
	fs := srv.fs
	id, _, err := c.RecordClip("venkat", media.NewVideoSource(300, 18000, 30, 47), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		snap, err := c.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		rounds := fs.Trace().Snapshot()
		last := rounds[len(rounds)-1]
		cs := fs.Manager().Cache().Stats()
		for _, g := range []struct {
			name string
			want int64
		}{
			{"mmfs_k", int64(fs.Manager().K())},
			{"mmfs_active_requests", int64(last.Active)},
			{"mmfs_cache_served_requests", int64(last.CacheServed)},
			{"mmfs_retry_slack_ns", last.RetrySlackNs},
			{"mmfs_cache_bytes", cs.Bytes},
			{"mmfs_cache_pinned_bytes", cs.PinnedBytes},
			{"mmfs_cache_owned_bytes", cs.OwnedBytes},
			{"mmfs_cache_intervals", int64(cs.Intervals)},
		} {
			if v, ok := snap.Gauge(g.name); !ok || v != g.want {
				t.Errorf("%s: %s reads %d (%v), want %d", when, g.name, v, ok, g.want)
			}
		}
		if err := cache.CheckInvariants(fs.Manager().Cache()); err != nil {
			t.Errorf("%s: %v", when, err)
		}
	}
	play := func() {
		t.Helper()
		if _, err := c.Play("venkat", id, rope.VideoOnly, 0, 0, 2, ""); err != nil {
			t.Fatal(err)
		}
	}
	play()
	check("after a PLAY")

	srv.mu.Lock()
	for i := 0; i < 2; i++ {
		if _, err := fs.Play("venkat", id, rope.VideoOnly, 0, 0, msm.PlanOptions{ReadAhead: 2}); err != nil {
			t.Fatal(err)
		}
		fs.Manager().RunFor(time.Second)
	}
	followers := fs.Manager().CacheServed()
	srv.mu.Unlock()
	if followers == 0 {
		t.Fatal("no cache-served follower mid-play: the gauges would read as a fresh manager's")
	}
	check("mid-play with a follower")

	srv.mu.Lock()
	fs.NewManager()
	srv.mu.Unlock()
	play()
	check("after NewManager and a PLAY")
}

// mmfs_server_conn_buffer_bytes is the memory the open connections'
// reply buffers retain: each keeps the capacity of its largest reply,
// the gauge is their sum, and a closed connection gives its share back.
func TestConnBufferGauge(t *testing.T) {
	srv, c, addr := serve(t, core.Options{}, nil)
	fs := srv.fs
	gauge := fs.Metrics().Gauge("mmfs_server_conn_buffer_bytes")
	waitFor := func(what string, ok func(v int64) bool) int64 {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			v := gauge.Value()
			if ok(v) {
				return v
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: gauge stuck at %d", what, v)
			}
			time.Sleep(time.Millisecond)
		}
	}
	id, _, err := c.RecordClip("venkat", media.NewVideoSource(60, 18000, 30, 43), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	small := gauge.Value()
	if small <= 0 || small > 4096 {
		t.Fatalf("gauge %d after small replies only", small)
	}
	const second = 30 * (4 + 18000) // one second of frames on the wire
	if _, err := c.Fetch("venkat", id, rope.VideoOnly, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	one := gauge.Value()
	if one < second {
		t.Fatalf("gauge %d after a %d-byte reply", one, second)
	}
	// The capacity is kept, not regrown: a smaller reply leaves it be,
	// and the METRICS reply reports it.
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.Gauge("mmfs_server_conn_buffer_bytes"); !ok || v != one || gauge.Value() != one {
		t.Fatalf("gauge %d over the wire (%v), %d in the registry, want %d", v, ok, gauge.Value(), one)
	}
	// A second connection adds its own buffer; closing it returns it.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Fetch("venkat", id, rope.VideoOnly, 0, 0); err != nil {
		t.Fatal(err)
	}
	two := gauge.Value()
	if two < one+2*second {
		t.Fatalf("gauge %d with a second connection holding a %d-byte reply beside %d", two, 2*second, one)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor("after the second connection closed", func(v int64) bool { return v == one })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor("after every connection closed", func(v int64) bool { return v == 0 })
}

// TestUnknownOpcodesShareOneSeries: the opcode is the client's to
// choose, so a series per opcode would be 65 535 series — and a METRICS
// reply that grows with them — from one hostile connection. A thousand
// distinct opcodes outside the protocol each get their error frame and
// together add one series, op="unknown"; every opcode the protocol
// defines keeps a series of its own.
func TestUnknownOpcodesShareOneSeries(t *testing.T) {
	_, c, addr := serve(t, core.Options{}, nil)
	requestSeries := func() map[string]uint64 {
		t.Helper()
		snap, err := c.Metrics()
		if err != nil {
			t.Fatalf("metrics: %v", err)
		}
		out := make(map[string]uint64)
		for _, cv := range snap.Counters {
			if strings.HasPrefix(cv.Name, "mmfs_requests_total{") {
				out[cv.Name] = cv.Value
			}
		}
		return out
	}
	before := requestSeries()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const bad = 1000
	for i := 0; i < bad; i++ {
		op := wire.Op(0)
		if i > 0 {
			op = wire.Op(65535 - i)
		}
		if err := wire.WriteFrame(conn, wire.Request(op, nil)); err != nil {
			t.Fatal(err)
		}
		frame, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("opcode %d: connection died: %v", op, err)
		}
		if _, err := wire.ParseResponse(frame); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("opcode %d: reply %v, want an unknown-op error frame", op, err)
		}
	}
	after := requestSeries()
	if got := after[`mmfs_requests_total{op="unknown"}`]; got != bad {
		t.Fatalf(`op="unknown" counts %d requests, want %d`, got, bad)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("%d bad opcodes took the request series from %d to %d, want one more", bad, len(before), len(after))
	}

	// The bound countOp tests must cover the whole protocol: an opcode
	// with a name has a series under that name.
	var named []string
	for op := wire.Op(0); op < 256; op++ {
		if name := op.String(); !strings.HasPrefix(name, "Op(") {
			named = append(named, name)
			if err := wire.WriteFrame(conn, wire.Request(op, nil)); err != nil {
				t.Fatal(err)
			}
			if _, err := wire.ReadFrame(conn); err != nil {
				t.Fatalf("%s: connection died: %v", name, err)
			}
		}
	}
	after = requestSeries()
	for _, name := range named {
		if after[`mmfs_requests_total{op="`+name+`"}`] == 0 {
			t.Errorf("protocol op %s has no request series of its own", name)
		}
	}
}
