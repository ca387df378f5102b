package server

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"time"

	"mmfs/internal/core"
	"mmfs/internal/media"
	"mmfs/internal/wire"
)

// fuzzReplyLimit is the FETCH reply limit the fuzzed server runs with:
// below its rope's second of video (540 KB), so the over-limit path is
// a seed away rather than 256 MiB away.
const fuzzReplyLimit = 256 << 10

// fuzzServer is a server over a small file system with something for
// every op to find: rope 1 (a second of video and audio, a trigger),
// a text file, and record session 1 open with one unit uploaded.
func fuzzServer(t testing.TB) *Server {
	t.Helper()
	srv := newServer(t, core.Options{}, func(s *Server) {
		r := recordLocal(t, s.fs, core.RecordSpec{
			Creator: "u",
			Video:   media.NewVideoSource(30, 18000, 30, 1),
			Audio:   media.NewAudioSource(10, 800, 10, 0.3, 4, 2),
		})
		if err := s.fs.AddTrigger("u", r.ID, 0, "caption"); err != nil {
			t.Fatal(err)
		}
		if err := s.fs.Text().Write("note", []byte("in the gaps")); err != nil {
			t.Fatal(err)
		}
		s.maxReply = fuzzReplyLimit
	})
	e := wire.NewEncoder()
	for _, req := range []struct {
		op   wire.Op
		body *wire.Encoder
	}{
		{wire.OpRecordStart, wire.NewEncoder().Str("u").Bool(true).U32(64).F64(30).Bool(false).U32(0).F64(0).Bool(false).Bool(false)},
		{wire.OpRecordAppend, wire.NewEncoder().U64(1).U16(1).U32(1).Blob(make([]byte, 64))},
	} {
		if _, err := wire.ParseResponse(srv.Handle(req.op, req.body.Bytes(), e)[4:]); err != nil {
			t.Fatalf("%v while preparing the fuzz server: %v", req.op, err)
		}
	}
	return srv
}

// fuzzRequest is one well-formed request against fuzzServer's file
// system.
type fuzzRequest struct {
	op   wire.Op
	body []byte
}

// fuzzRequests is one fuzzRequest per op, in op order.
func fuzzRequests() []fuzzRequest {
	rng := func() *wire.Encoder {
		return wire.NewEncoder().Str("u").U64(1).U16(1).I64(0).I64(int64(time.Second / 2))
	}
	return []fuzzRequest{
		{wire.OpRecordStart, wire.NewEncoder().Str("u").Bool(true).U32(64).F64(30).Bool(true).U32(8).F64(10).Bool(true).Bool(false).Bytes()},
		{wire.OpRecordAppend, wire.NewEncoder().U64(1).U16(1).U32(2).Blob(make([]byte, 64)).Blob(make([]byte, 64)).Bytes()},
		{wire.OpRecordFinish, wire.NewEncoder().U64(1).Bytes()},
		{wire.OpPlay, rng().U32(2).Str("").Bytes()},
		{wire.OpFetch, rng().Bytes()},
		{wire.OpInsert, wire.NewEncoder().Str("u").U64(1).I64(int64(time.Second / 2)).U16(0).U64(1).I64(0).I64(int64(time.Second / 4)).Bytes()},
		{wire.OpReplace, wire.NewEncoder().Str("u").U64(1).U16(1).I64(0).I64(int64(time.Second / 4)).U64(1).I64(int64(time.Second / 2)).I64(int64(time.Second / 4)).Bytes()},
		{wire.OpSubstring, rng().Bytes()},
		{wire.OpConcate, wire.NewEncoder().Str("u").U64(1).U64(1).Bytes()},
		{wire.OpDeleteRange, rng().Bytes()},
		{wire.OpDeleteRope, wire.NewEncoder().Str("u").U64(1).Bytes()},
		{wire.OpRopeInfo, wire.NewEncoder().U64(1).Bytes()},
		{wire.OpListRopes, nil},
		{wire.OpStats, nil},
		{wire.OpTextWrite, wire.NewEncoder().Str("other").Blob([]byte("text")).Bytes()},
		{wire.OpTextRead, wire.NewEncoder().Str("note").Bytes()},
		{wire.OpTextList, nil},
		{wire.OpSetAccess, wire.NewEncoder().Str("u").U64(1).U32(2).Str("ann").Str("bob").U32(1).Str("ann").Bytes()},
		{wire.OpCheck, nil},
		{wire.OpAddTrigger, wire.NewEncoder().Str("u").U64(1).I64(int64(time.Second / 2)).Str("mid").Bytes()},
		{wire.OpTriggers, wire.NewEncoder().Str("u").U64(1).Bytes()},
		{wire.OpFlatten, wire.NewEncoder().Str("u").U64(1).Bytes()},
		{wire.OpMetrics, nil},
		{wire.OpRebuild, wire.NewEncoder().U32(0).Bytes()},
	}
}

// FuzzHandle throws arbitrary (op, body) pairs at the dispatcher: each
// must come back as one well-formed OK or error frame — never a panic,
// never an allocation the request's size does not account for. The
// server is fresh for every input, so a failure replays from its input
// alone.
func FuzzHandle(f *testing.F) {
	// The SETACCESS frame that killed the daemon: 2³²−1 names claimed.
	f.Add(uint16(wire.OpSetAccess), wire.NewEncoder().Str("u").U64(1).U32(math.MaxUint32).Bytes())
	// A FETCH whose reply passes the limit: an error reply, not a torn
	// connection.
	f.Add(uint16(wire.OpFetch), wire.NewEncoder().Str("u").U64(1).U16(1).I64(0).I64(0).Bytes())
	for _, r := range fuzzRequests() {
		f.Add(uint16(r.op), r.body)
		f.Add(uint16(r.op), r.body[:len(r.body)/2])
		if len(r.body) > 0 {
			f.Add(uint16(r.op), r.body[:len(r.body)-1])
		}
	}
	f.Add(uint16(0), []byte(nil))
	f.Add(uint16(9999), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, op uint16, body []byte) {
		srv := fuzzServer(t)
		e := wire.NewEncoder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		frame := srv.Handle(wire.Op(op), body, e)
		runtime.ReadMemStats(&after)

		if len(frame) < 6 || int(binary.LittleEndian.Uint32(frame)) != len(frame)-4 {
			t.Fatalf("%v: reply of %d bytes is not one length-prefixed frame", wire.Op(op), len(frame))
		}
		status := binary.LittleEndian.Uint16(frame[4:])
		_, err := wire.ParseResponse(frame[4:])
		switch {
		case status == wire.StatusOK && err != nil:
			t.Fatalf("%v: OK frame does not parse: %v", wire.Op(op), err)
		case status == wire.StatusErr && (err == nil || err.Error() == "wire: malformed error response"):
			t.Fatalf("%v: error frame does not carry a message: %v", wire.Op(op), err)
		case status != wire.StatusOK && status != wire.StatusErr:
			t.Fatalf("%v: reply status %d", wire.Op(op), status)
		}
		// The largest honest reply here is a FETCH up to its limit; no
		// reply, and no reply buffer, may pass it by more than a unit.
		if limit := fuzzReplyLimit + 6 + 4 + 18000; len(frame) > limit || e.Cap() > 2*limit {
			t.Fatalf("%v: reply of %d bytes in a %d-byte buffer, limit %d", wire.Op(op), len(frame), e.Cap(), limit)
		}
		// What a handler allocates is bounded by what it was sent plus
		// what the small file system holds (a RECORD's cylinder pages,
		// a play's plan), not by a number in the request.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<20+64*len(body)); grew > limit {
			t.Fatalf("%v with a %d-byte body allocated %d bytes, limit %d", wire.Op(op), len(body), grew, limit)
		}
	})
}
