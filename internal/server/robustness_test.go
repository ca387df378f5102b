package server

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/media"
	"mmfs/internal/rope"
	"mmfs/internal/wire"
)

func TestServerSurvivesMalformedFrames(t *testing.T) {
	_, _, addr := serve(t, core.Options{}, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	expectError := func(payload []byte, what string) {
		t.Helper()
		if err := wire.WriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
		frame, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%s: connection died: %v", what, err)
		}
		if _, err := wire.ParseResponse(frame); err == nil {
			t.Fatalf("%s produced a success response", what)
		}
	}
	expectError([]byte{7}, "runt frame")
	expectError(wire.Request(wire.Op(9999), nil), "unknown opcode")
	expectError(wire.Request(wire.OpPlay, []byte{1, 2}), "truncated body")
	expectError(wire.Request(wire.OpRecordAppend, wire.NewEncoder().U64(999).U16(1).U32(1).Blob([]byte("x")).Bytes()), "append to unknown session")

	// The connection still serves valid requests afterwards.
	if err := wire.WriteFrame(conn, wire.Request(wire.OpListRopes, nil)); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ParseResponse(frame); err != nil {
		t.Fatalf("valid request after garbage failed: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	// Multiple clients hammer the server at once; the server lock
	// must serialize cleanly with no lost updates or corruption.
	_, cMain, addr := serve(t, core.Options{}, nil)
	id, _, err := cMain.RecordClip("owner", media.NewVideoSource(60, 18000, 30, 31), nil, false)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c2, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c2.Close()
			for i := 0; i < 5; i++ {
				if _, err := c2.Info(id); err != nil {
					errs <- fmt.Errorf("worker %d info: %w", w, err)
					return
				}
				res, err := c2.Play("owner", id, rope.VideoOnly, 0, 0, 2, "")
				if err != nil {
					errs <- fmt.Errorf("worker %d play: %w", w, err)
					return
				}
				if res.Violations != 0 {
					errs <- fmt.Errorf("worker %d: %d violations", w, res.Violations)
					return
				}
				if err := c2.TextWrite(fmt.Sprintf("w%d-%d", w, i), []byte("x")); err != nil {
					errs <- fmt.Errorf("worker %d text: %w", w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case err := <-errs:
		t.Fatal(err)
	case <-done:
	}

	names, err := cMain.TextList()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 20 {
		t.Fatalf("%d text files, want 20", len(names))
	}
	problems, err := cMain.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("fsck after concurrent load: %v", problems)
	}
}

func TestRecordSessionUploadInBatches(t *testing.T) {
	_, c, _ := serve(t, core.Options{}, nil)
	sess, err := c.RecordStart("batch", &client.MediumSpec{UnitBytes: 18000, Rate: 30}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewVideoSource(200, 18000, 30, 41) // > one append batch
	var units [][]byte
	for {
		u, ok := src.Next()
		if !ok {
			break
		}
		units = append(units, u.Payload)
	}
	if err := sess.Append(rope.VideoOnly, units); err != nil {
		t.Fatal(err)
	}
	id, length, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if length.Seconds() < 6.6 || length.Seconds() > 6.7 {
		t.Fatalf("length %v, want 200/30 s", length)
	}
	// Finishing twice must fail (the session is gone).
	if _, _, err := sess.Finish(); err == nil {
		t.Fatal("double finish accepted")
	}
	got, err := c.Fetch("batch", id, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("fetched %d units", len(got))
	}
}

func TestNetworkHeterogeneousRecord(t *testing.T) {
	_, c, _ := serve(t, core.Options{}, nil)
	sess, err := c.RecordStartHeterogeneous("het",
		&client.MediumSpec{UnitBytes: 18000, Rate: 30},
		&client.MediumSpec{UnitBytes: 800, Rate: 15})
	if err != nil {
		t.Fatal(err)
	}
	push := func(m rope.Medium, src media.Source) {
		t.Helper()
		var units [][]byte
		for {
			u, ok := src.Next()
			if !ok {
				break
			}
			units = append(units, u.Payload)
		}
		if err := sess.Append(m, units); err != nil {
			t.Fatal(err)
		}
	}
	push(rope.VideoOnly, media.NewVideoSource(60, 18000, 30, 51))
	push(rope.AudioOnly, media.NewAudioSource(30, 800, 15, 0, 1, 52))
	id, length, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if length.Seconds() != 2 {
		t.Fatalf("length %v", length)
	}
	info, err := c.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Strands != 1 {
		t.Fatalf("heterogeneous rope has %d strands, want 1", info.Strands)
	}
	res, err := c.Play("het", id, rope.AudioVisual, 0, 0, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("%d violations", res.Violations)
	}
	units, err := c.Fetch("het", id, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(units[0]) // [u32 video length][frame][audio]
	frame, audio := units[0][4:4+n], units[0][4+n:]
	if err := media.ValidateFrameSeq(frame, 0); err != nil {
		t.Fatal(err)
	}
	if len(audio) != 400 {
		t.Fatalf("audio share %d", len(audio))
	}
}

func TestNetworkTriggersAndFlatten(t *testing.T) {
	_, c, _ := serve(t, core.Options{}, nil)
	r1, _, err := c.RecordClip("ed", media.NewVideoSource(120, 18000, 30, 61), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := c.RecordClip("ed", media.NewVideoSource(60, 18000, 30, 62), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTrigger("ed", r1, 2*time.Second, "chapter two"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("ed", r1, time.Second, rope.VideoOnly, r2, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	trigs, err := c.Triggers("ed", r1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trigs) != 1 || trigs[0].Text != "chapter two" {
		t.Fatalf("triggers %v", trigs)
	}
	// The insert shifted the trigger's media moment from 2s to 3s.
	if trigs[0].At < 2900*time.Millisecond || trigs[0].At > 3*time.Second {
		t.Fatalf("trigger at %v, want ≈ 3s", trigs[0].At)
	}

	info, err := c.Info(r1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Intervals < 3 {
		t.Fatalf("%d intervals before flatten", info.Intervals)
	}
	if _, err := c.Flatten("ed", r1); err != nil {
		t.Fatal(err)
	}
	info, err = c.Info(r1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Intervals != 1 {
		t.Fatalf("%d intervals after flatten", info.Intervals)
	}
	res, err := c.Play("ed", r1, rope.VideoOnly, 0, 0, 2, "")
	if err != nil || res.Violations != 0 {
		t.Fatalf("post-flatten play: %v, %d violations", err, res.Violations)
	}
	problems, err := c.Check()
	if err != nil || len(problems) != 0 {
		t.Fatalf("fsck: %v %v", problems, err)
	}
}
