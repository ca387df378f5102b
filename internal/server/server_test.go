package server

import (
	"net"
	"testing"
	"time"

	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/media"
	"mmfs/internal/rope"
)

// newServer formats a file system with opts and puts a server on it,
// set up by configure when that is not nil: the one way the package's
// tests and its fuzz target build a server.
func newServer(t testing.TB, opts core.Options, configure func(*Server)) *Server {
	t.Helper()
	fs, err := core.Format(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(fs)
	if configure != nil {
		configure(srv)
	}
	return srv
}

// serve serves newServer's server on loopback and returns it, a client
// connected to it and the address, for tests that open further
// connections.
func serve(t *testing.T, opts core.Options, configure func(*Server)) (*Server, *client.Client, string) {
	t.Helper()
	srv := newServer(t, opts, configure)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { _ = srv.Close() })
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return srv, c, lis.Addr().String()
}

func TestNetworkRecordPlayFetch(t *testing.T) {
	_, c, _ := serve(t, core.Options{}, nil)
	video := media.NewVideoSource(60, 18000, 30, 9001)
	audio := media.NewAudioSource(20, 800, 10, 0.3, 4, 9002)
	id, length, err := c.RecordClip("venkat", video, audio, true)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if length != 2*time.Second {
		t.Fatalf("length %v, want 2s", length)
	}

	info, err := c.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasVideo || !info.HasAudio || info.Creator != "venkat" {
		t.Fatalf("info %+v", info)
	}

	res, err := c.Play("venkat", id, rope.AudioVisual, 0, 0, 2, "")
	if err != nil {
		t.Fatalf("play: %v", err)
	}
	if res.Violations != 0 {
		t.Fatalf("remote playback had %d violations", res.Violations)
	}
	if res.Blocks == 0 {
		t.Fatal("remote playback retrieved no blocks")
	}

	// Fetch the video units back and verify payload integrity.
	units, err := c.Fetch("venkat", id, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if len(units) != 60 {
		t.Fatalf("fetched %d units, want 60", len(units))
	}
	for i, u := range units {
		if err := media.ValidateFrameSeq(u, uint64(i)); err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
	}
}

func TestNetworkEditingAndText(t *testing.T) {
	_, c, _ := serve(t, core.Options{}, nil)
	r1, _, err := c.RecordClip("venkat", media.NewVideoSource(90, 18000, 30, 1), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := c.RecordClip("venkat", media.NewVideoSource(60, 18000, 30, 2), nil, false)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.Insert("venkat", r1, time.Second, rope.VideoOnly, r2, 0, time.Second); err != nil {
		t.Fatalf("insert: %v", err)
	}
	info, err := c.Info(r1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Length != 4*time.Second {
		t.Fatalf("post-insert length %v, want 4s", info.Length)
	}

	sub, err := c.Substring("venkat", r1, rope.VideoOnly, 0, time.Second)
	if err != nil {
		t.Fatalf("substring: %v", err)
	}
	cat, _, err := c.Concate("venkat", sub, r2)
	if err != nil {
		t.Fatalf("concate: %v", err)
	}
	catInfo, err := c.Info(cat)
	if err != nil {
		t.Fatal(err)
	}
	if catInfo.Length != 3*time.Second {
		t.Fatalf("concat length %v, want 3s", catInfo.Length)
	}

	ids, err := c.ListRopes()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 4 {
		t.Fatalf("listed %d ropes, want 4", len(ids))
	}

	// Text files share the disk.
	if err := c.TextWrite("README", []byte("media gaps hold text")); err != nil {
		t.Fatalf("text write: %v", err)
	}
	data, err := c.TextRead("README")
	if err != nil {
		t.Fatalf("text read: %v", err)
	}
	if string(data) != "media gaps hold text" {
		t.Fatalf("text round trip got %q", data)
	}
	names, err := c.TextList()
	if err != nil || len(names) != 1 {
		t.Fatalf("text list %v, %v", names, err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ropes != 4 || st.Strands == 0 {
		t.Fatalf("stats %+v", st)
	}

	// Access control crosses the wire.
	if err := c.SetAccess("venkat", r1, []string{"harrick"}, []string{"harrick"}); err != nil {
		t.Fatalf("set access: %v", err)
	}
	if _, err := c.Play("mallory", r1, rope.VideoOnly, 0, 0, 2, ""); err == nil {
		t.Fatal("expected access error for user outside PlayAccess")
	}
	if res, err := c.Play("harrick", r1, rope.VideoOnly, 0, 0, 2, ""); err != nil {
		t.Fatalf("play denied for listed user: %v", err)
	} else if res.Violations != 0 {
		t.Fatalf("playback had %d violations", res.Violations)
	}
	if err := c.SetAccess("mallory", r1, nil, nil); err == nil {
		t.Fatal("non-creator changed access lists")
	}
}

func TestNetworkCheck(t *testing.T) {
	_, c, _ := serve(t, core.Options{}, nil)
	if _, _, err := c.RecordClip("venkat", media.NewVideoSource(30, 18000, 30, 77), nil, false); err != nil {
		t.Fatal(err)
	}
	problems, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("fsck over the wire found: %v", problems)
	}
}

// TestMutatingOpsSyncBeforeReply pins the durability policy the
// dispatcher states once: by the time a mutating op's reply arrives the
// metadata has been synced exactly once, a mutating op that failed and
// every other op have synced nothing (CHECK, which syncs before it looks,
// aside).
func TestMutatingOpsSyncBeforeReply(t *testing.T) {
	srv, c, _ := serve(t, core.Options{}, nil)
	fs := srv.fs
	syncs := fs.Metrics().Histogram("mmfs_sync_seconds", nil)
	step := func(name string, want uint64, err error, before uint64) uint64 {
		t.Helper()
		after := syncs.Count()
		if got := after - before; got != want {
			t.Fatalf("%s (err=%v): %d sync(s) before the reply, want %d", name, err, got, want)
		}
		return after
	}
	const user = "venkat"
	n := syncs.Count()
	r1, _, err := c.RecordClip(user, media.NewVideoSource(90, 18000, 30, 1), media.NewAudioSource(30, 800, 10, 0.3, 4, 2), false)
	n = step("record", 1, err, n)
	r2, _, err := c.RecordClip(user, media.NewVideoSource(60, 18000, 30, 3), nil, false)
	n = step("record", 1, err, n)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Insert(user, r1, time.Second, rope.VideoOnly, r2, 0, time.Second)
	n = step("insert", 1, err, n)
	_, err = c.Replace(user, r1, rope.VideoOnly, 0, time.Second, r2, 0, time.Second)
	n = step("replace", 1, err, n)
	sub, err := c.Substring(user, r1, rope.VideoOnly, 0, time.Second)
	n = step("substring", 1, err, n)
	cat, _, err := c.Concate(user, sub, r2)
	n = step("concate", 1, err, n)
	_, err = c.DeleteRange(user, cat, rope.VideoOnly, 0, time.Second)
	n = step("delete range", 1, err, n)
	n = step("text write", 1, c.TextWrite("notes", []byte("x")), n)
	n = step("set access", 1, c.SetAccess(user, r1, []string{"harrick"}, nil), n)
	n = step("add trigger", 1, c.AddTrigger(user, r1, time.Second, "cue"), n)
	_, err = c.Flatten(user, cat)
	n = step("flatten", 1, err, n)
	_, err = c.DeleteRope(user, sub)
	n = step("delete rope", 1, err, n)

	_, err = c.Insert(user, r1, time.Second, rope.VideoOnly, 9999, 0, time.Second)
	if err == nil {
		t.Fatal("insert of an unknown rope succeeded")
	}
	n = step("failed insert", 0, err, n)
	if err = c.SetAccess("mallory", r1, nil, nil); err == nil {
		t.Fatal("non-creator changed access lists")
	}
	n = step("failed set access", 0, err, n)

	_, err = c.Info(r1)
	n = step("info", 0, err, n)
	_, err = c.ListRopes()
	n = step("list", 0, err, n)
	_, err = c.Play(user, r1, rope.VideoOnly, 0, 0, 2, "")
	n = step("play", 0, err, n)
	_, err = c.Fetch(user, r2, rope.VideoOnly, 0, 0)
	n = step("fetch", 0, err, n)
	_, err = c.Stats()
	n = step("stats", 0, err, n)
	_, err = c.TextRead("notes")
	n = step("text read", 0, err, n)
	_, err = c.TextList()
	n = step("text list", 0, err, n)
	_, err = c.Triggers(user, r1)
	n = step("triggers", 0, err, n)
	_, err = c.Metrics()
	n = step("metrics", 0, err, n)
	_, err = c.Check()
	step("check", 1, err, n)
}
