package server

import (
	"sync"
	"testing"

	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/media"
	"mmfs/internal/rope"
)

// TestConcurrentCachedPlays replays one rope from many connections at
// once against a cache-enabled file system. Plays serialize on the
// server's file system lock, but the framing layer (and its pooled
// reply encoders) runs concurrently — this is the -race exercise for
// the encoder free list — and every play after the first should be fed
// by the interval cache's LRU residue.
func TestConcurrentCachedPlays(t *testing.T) {
	_, c0, addr := serve(t, core.Options{CacheMB: 8}, nil)
	video := media.NewVideoSource(120, 18000, 30, 4242)
	id, _, err := c0.RecordClip("anita", video, nil, false)
	if err != nil {
		t.Fatalf("record: %v", err)
	}

	const players = 6
	var wg sync.WaitGroup
	results := make([]client.PlayResult, players)
	errs := make([]error, players)
	for i := 0; i < players; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer func() { _ = c.Close() }()
			results[i], errs[i] = c.Play("anita", id, rope.VideoOnly, 0, 0, 2, "")
		}(i)
	}
	wg.Wait()

	var hits int
	for i := 0; i < players; i++ {
		if errs[i] != nil {
			t.Fatalf("play %d: %v", i, errs[i])
		}
		if results[i].Violations != 0 {
			t.Fatalf("play %d: %d violations", i, results[i].Violations)
		}
		if results[i].Blocks == 0 {
			t.Fatalf("play %d retrieved no blocks", i)
		}
		hits += results[i].CacheHits
	}
	if hits == 0 {
		t.Fatal("no play was served from the interval cache")
	}
	st, err := c0.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits == 0 || st.CacheCapacity != 8<<20 {
		t.Fatalf("server cache stats not reported: %+v", st)
	}
}
