// Package server implements the Multimedia Rope Server (MRS) network
// front end: the device-independent layer of the paper's two-layer
// architecture (§5.2), accepting rope operations over the wire
// protocol and executing them against the core file system (which
// embeds the device-specific Multimedia Storage Manager).
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/obs"
	"mmfs/internal/rope"
	"mmfs/internal/wire"
)

// mediaBuf accumulates one medium's units uploaded by a client before
// RecordFinish replays them through the storage manager.
type mediaBuf struct {
	unitBytes int
	rate      float64
	units     []media.Unit
}

// recordSession is an in-progress client upload.
type recordSession struct {
	creator string
	silence bool
	hetero  bool
	video   *mediaBuf
	audio   *mediaBuf
}

// ErrServerBusy is returned to a client whose connection is refused
// because the server is at its MaxConns limit or draining.
var ErrServerBusy = errors.New("server: busy")

// Server serves the MRS protocol over a listener. All file system
// access is serialized: the simulated disk is single-ported and the
// storage manager's virtual clock is global, exactly like the
// prototype's single PC-AT storage manager.
type Server struct {
	mu       sync.Mutex
	fs       *core.FS
	sessions map[uint64]*recordSession // guarded by mu
	nextSess uint64                    // guarded by mu

	lis      net.Listener          // guarded by mu
	conns    map[net.Conn]struct{} // guarded by mu
	wg       sync.WaitGroup
	closed   bool // guarded by mu
	draining bool // guarded by mu

	// reg is the file system's metrics registry; inflight counts
	// requests between frame parse and response write (it is the only
	// server metric mutated outside mu — the gauge is atomic).
	reg      *obs.Registry
	inflight *obs.Gauge
	openConn *obs.Gauge
	// connBuf sums the capacities of the open connections' reply
	// encoders: each keeps the room of its largest reply for the
	// connection's life, so the total is bounded by open connections ×
	// largest reply ≤ MaxConns × the frame limit. Atomic, like inflight.
	connBuf  *obs.Gauge
	opCount  map[wire.Op]*obs.Counter // guarded by mu
	errCount *obs.Counter
	rejected *obs.Counter
	// maxReply is the largest body a FETCH may build: wire.MaxBody
	// (tests lower it to reach the limit with a small rope).
	maxReply int

	// Logf, when non-nil, receives operational log lines (abnormal
	// connection teardown and the like). It must be set before Serve
	// and is read without the lock thereafter.
	Logf func(format string, args ...any)

	// ReadTimeout, when positive, bounds how long a connection may sit
	// between requests: the per-frame read deadline is refreshed before
	// each request, so an idle or wedged client is dropped rather than
	// holding its slot forever. Set before Serve.
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds each response write; a client
	// that stops draining its socket cannot wedge the server. Set
	// before Serve.
	WriteTimeout time.Duration
	// MaxConns, when positive, caps concurrent connections; excess
	// connections receive one ErrServerBusy response frame and are
	// closed. Set before Serve.
	MaxConns int
}

// New creates a server over a mounted file system.
func New(fs *core.FS) *Server {
	reg := fs.Metrics()
	return &Server{
		fs:       fs,
		sessions: make(map[uint64]*recordSession),
		nextSess: 1,
		conns:    make(map[net.Conn]struct{}),
		reg:      reg,
		inflight: reg.Gauge("mmfs_server_inflight_requests"),
		openConn: reg.Gauge("mmfs_server_open_conns"),
		connBuf:  reg.Gauge("mmfs_server_conn_buffer_bytes"),
		maxReply: wire.MaxBody,
		opCount:  make(map[wire.Op]*obs.Counter),
		errCount: reg.Counter("mmfs_server_errors_total"),
		rejected: reg.Counter("mmfs_server_rejected_conns_total"),
	}
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting and drains gracefully: connections mid-request
// finish their request and have the response delivered, idle
// connections are nudged out of their blocking read, and Close returns
// once every connection handler has exited.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.draining = true
	lis := s.lis
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	// Expire the read deadline of every open connection: a handler
	// blocked waiting for the next request returns immediately, while a
	// handler mid-request is untouched until it re-enters the read.
	for _, c := range conns {
		//lint:ignore simclock,noerrdrop connection deadlines guard real network I/O; a failed set means the conn is already dead
		_ = c.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	return err
}

// isDraining reports whether Close has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// registerConn admits a connection into the conn table; false means
// the server is full or draining and the connection must be refused.
func (s *Server) registerConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || (s.MaxConns > 0 && len(s.conns) >= s.MaxConns) {
		return false
	}
	s.conns[conn] = struct{}{}
	s.openConn.Set(int64(len(s.conns)))
	return true
}

// unregisterConn removes a connection from the conn table.
func (s *Server) unregisterConn(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
	s.openConn.Set(int64(len(s.conns)))
}

// logf writes one operational log line through Logf, if set.
func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// refusalLinger bounds how long a refused connection is kept half-open
// so its client can read the refusal.
const refusalLinger = time.Second

// lingerRefused lets a refused client read its ErrServerBusy frame:
// closing a socket with the client's request unread — or still in
// flight — answers it with an RST, which discards the refusal the
// client has not read yet (it then sees "broken pipe" or "connection
// reset" instead of the diagnosis). So finish our side of the stream,
// then swallow what the client sends until it hangs up or the linger
// deadline passes.
func (s *Server) lingerRefused(conn net.Conn) {
	if hc, ok := conn.(interface{ CloseWrite() error }); ok {
		//lint:ignore noerrdrop half-close is best effort; the caller's Close follows either way
		_ = hc.CloseWrite()
	}
	//lint:ignore simclock,noerrdrop connection deadlines guard real network I/O; a failed set means the conn is already dead
	_ = conn.SetReadDeadline(time.Now().Add(refusalLinger))
	var sink [512]byte
	for {
		if _, err := conn.Read(sink[:]); err != nil {
			return // EOF (the client hung up), or the linger deadline
		}
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if !s.registerConn(conn) {
		// Over MaxConns (or draining): refuse with one error frame so
		// the client's first call fails with a diagnosis instead of a
		// silent hangup.
		s.rejected.Inc()
		if s.WriteTimeout > 0 {
			//lint:ignore simclock,noerrdrop connection deadlines guard real network I/O; a failed set means the conn is already dead
			_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		//lint:ignore noerrdrop best-effort refusal notice; the deferred Close is the real remedy
		_ = wire.WriteFrame(conn, wire.ErrResponse(ErrServerBusy))
		s.lingerRefused(conn)
		return
	}
	defer s.unregisterConn(conn)
	// The connection's reply encoder: every reply is built, framed and
	// written from this one buffer, which keeps its capacity from reply
	// to reply (held tracks what the gauge has been told).
	e := wire.NewEncoder()
	held := int64(0)
	defer func() { s.connBuf.Add(-held) }()
	for {
		if s.ReadTimeout > 0 {
			//lint:ignore simclock,noerrdrop connection deadlines guard real network I/O; a failed set means the conn is already dead
			_ = conn.SetReadDeadline(time.Now().Add(s.ReadTimeout))
		}
		// Checked after the deadline refresh: either this sees the
		// drain and returns, or Close's expired-deadline nudge lands
		// after the refresh and unblocks the read below — never a
		// lingering connection.
		if s.isDraining() {
			return
		}
		// Request frames are never recycled: recordAppend's units are
		// views of theirs (wire.Decoder.Blob), kept until RecordFinish.
		frame, err := wire.ReadFrame(conn)
		if err != nil {
			if err != io.EOF && !s.isDraining() {
				// Connection torn down mid-frame (or idle past the
				// read deadline): surface it so a misbehaving client
				// or network is not silent.
				s.logf("server: %v: reading frame: %v", conn.RemoteAddr(), err)
			}
			return
		}
		op, body, err := wire.ParseRequest(frame)
		var resp []byte
		if err != nil {
			resp = e.FrameError(err)
		} else {
			resp = s.Handle(op, body, e)
		}
		if c := int64(e.Cap()); c != held {
			s.connBuf.Add(c - held)
			held = c
		}
		if s.WriteTimeout > 0 {
			//lint:ignore simclock,noerrdrop connection deadlines guard real network I/O; a failed set means the conn is already dead
			_ = conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		}
		// Header and body in one Write, outside s.mu.
		if _, err := conn.Write(resp); err != nil {
			return
		}
		if s.isDraining() {
			// Graceful drain: the in-flight request got its response;
			// end the connection instead of accepting another.
			return
		}
	}
}

// Handle dispatches one request under the file system lock and returns
// the reply as one wire frame, built and framed in place in e (a
// connection's reply encoder): valid until e's next use, and written
// by the caller outside the lock.
func (s *Server) Handle(op wire.Op, body []byte, e *wire.Encoder) []byte {
	s.inflight.Inc()
	defer s.inflight.Dec()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.countOp(op)
	d := wire.NewDecoder(body)
	e.Reset()
	var err error
	switch op {
	case wire.OpRecordStart:
		err = s.recordStart(d, e)
	case wire.OpRecordAppend:
		err = s.recordAppend(d, e)
	case wire.OpRecordFinish:
		// recordFinish and play drive the storage manager's virtual
		// clock to completion under s.mu: the paper's storage manager
		// is single-ported (§5.2), so all FS access is serialized by
		// design. Removing the lock is ROADMAP item 4.
		err = s.recordFinish(d, e)
	case wire.OpPlay:
		err = s.play(d, e)
	case wire.OpFetch:
		err = s.fetch(d, e)
	case wire.OpInsert:
		err = s.insert(d, e)
	case wire.OpReplace:
		err = s.replace(d, e)
	case wire.OpSubstring:
		err = s.substring(d, e)
	case wire.OpConcate:
		err = s.concate(d, e)
	case wire.OpDeleteRange:
		err = s.deleteRange(d, e)
	case wire.OpDeleteRope:
		err = s.deleteRope(d, e)
	case wire.OpRopeInfo:
		err = s.ropeInfo(d, e)
	case wire.OpListRopes:
		err = s.listRopes(d, e)
	case wire.OpStats:
		err = s.stats(d, e)
	case wire.OpTextWrite:
		err = s.textWrite(d, e)
	case wire.OpTextRead:
		err = s.textRead(d, e)
	case wire.OpTextList:
		err = s.textList(d, e)
	case wire.OpSetAccess:
		err = s.setAccess(d, e)
	case wire.OpCheck:
		err = s.check(d, e)
	case wire.OpAddTrigger:
		err = s.addTrigger(d, e)
	case wire.OpTriggers:
		err = s.triggers(d, e)
	case wire.OpFlatten:
		err = s.flatten(d, e)
	case wire.OpMetrics:
		err = s.metrics(d, e)
	case wire.OpRebuild:
		err = s.rebuild(d, e)
	default:
		err = fmt.Errorf("server: unknown op %v", op)
	}
	if err == nil && mutates(op) {
		// Durable before acknowledged: a failed Sync fails the op.
		err = s.fs.Sync()
	}
	if err == nil && d.Err() != nil {
		err = fmt.Errorf("server: malformed %v request: %w", op, d.Err())
	}
	if err == nil {
		var frame []byte
		if frame, err = e.Frame(wire.StatusOK); err == nil {
			return frame
		}
		// A reply past the frame limit is the request's failure, not
		// the connection's.
		err = fmt.Errorf("server: %v reply: %w", op, err)
	}
	s.errCount.Inc()
	return e.FrameError(err)
}

// mutates reports whether an op that succeeded changed what Sync
// persists — ropes, strands, text files, access lists, triggers — and so
// must be followed by one before it is acknowledged. (RECORD's start and
// appends only buffer in the session; CHECK syncs before it looks, not
// after; REBUILD changes a spindle, not the metadata.)
func mutates(op wire.Op) bool {
	switch op {
	case wire.OpRecordFinish, wire.OpInsert, wire.OpReplace, wire.OpSubstring, wire.OpConcate,
		wire.OpDeleteRange, wire.OpDeleteRope, wire.OpTextWrite, wire.OpSetAccess,
		wire.OpAddTrigger, wire.OpFlatten:
		return true
	case wire.OpRecordStart, wire.OpRecordAppend, wire.OpPlay, wire.OpFetch, wire.OpRopeInfo,
		wire.OpListRopes, wire.OpStats, wire.OpTextRead, wire.OpTextList, wire.OpCheck,
		wire.OpTriggers, wire.OpMetrics, wire.OpRebuild:
		return false
	}
	return false
}

// countOp increments the per-op request counter. The caller must hold
// s.mu (the counter map is populated lazily as ops arrive). The opcode
// is the client's to choose: everything outside the protocol counts
// under op="unknown", so no connection can mint series.
func (s *Server) countOp(op wire.Op) {
	if op < wire.OpRecordStart || op > wire.OpRebuild {
		op = 0
	}
	c := s.opCount[op]
	if c == nil {
		label := "unknown"
		if op != 0 {
			label = op.String()
		}
		c = s.reg.Counter(fmt.Sprintf("mmfs_requests_total{op=%q}", label))
		s.opCount[op] = c
	}
	c.Inc()
}

// metrics encodes a snapshot of every registered metric. The caller
// must hold s.mu.
func (s *Server) metrics(d *wire.Decoder, e *wire.Encoder) error {
	wire.EncodeSnapshot(e, s.reg.Snapshot())
	return nil
}

// recordStart opens an upload session. The caller must hold s.mu.
func (s *Server) recordStart(d *wire.Decoder, e *wire.Encoder) error {
	creator := d.Str()
	hasVideo := d.Bool()
	vUnitBytes := d.U32()
	vRate := d.F64()
	hasAudio := d.Bool()
	aUnitBytes := d.U32()
	aRate := d.F64()
	silence := d.Bool()
	hetero := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if !hasVideo && !hasAudio {
		return fmt.Errorf("server: RECORD needs at least one medium")
	}
	if hetero && (!hasVideo || !hasAudio) {
		return fmt.Errorf("server: heterogeneous RECORD needs both media")
	}
	sess := &recordSession{creator: creator, silence: silence, hetero: hetero}
	if hasVideo {
		sess.video = &mediaBuf{unitBytes: int(vUnitBytes), rate: vRate}
	}
	if hasAudio {
		sess.audio = &mediaBuf{unitBytes: int(aUnitBytes), rate: aRate}
	}
	id := s.nextSess
	s.nextSess++
	s.sessions[id] = sess
	e.U64(id)
	return nil
}

// recordAppend buffers uploaded units. The caller must hold s.mu.
func (s *Server) recordAppend(d *wire.Decoder, e *wire.Encoder) error {
	id := d.U64()
	code := d.U16()
	count := d.Count(4)
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("server: unknown record session %d", id)
	}
	var buf *mediaBuf
	switch m, err := rope.MediumFromCode(code); {
	case err == nil && m == rope.VideoOnly:
		buf = sess.video
	case err == nil && m == rope.AudioOnly:
		buf = sess.audio
	default:
		return fmt.Errorf("server: append needs a single medium, got code %d", code)
	}
	if buf == nil {
		return fmt.Errorf("server: session %d does not record that medium", id)
	}
	buf.units = slices.Grow(buf.units, count)
	for i := 0; i < count; i++ {
		// A view of the request frame, which the session keeps alive
		// until RecordFinish has written the unit out.
		payload := d.Blob()
		if d.Err() != nil {
			return d.Err()
		}
		if len(payload) != buf.unitBytes {
			return fmt.Errorf("server: unit of %d bytes, session expects %d", len(payload), buf.unitBytes)
		}
		buf.units = append(buf.units, media.Unit{Seq: uint64(len(buf.units)), Payload: payload})
	}
	return nil
}

// recordFinish replays a session through the storage manager. The
// caller must hold s.mu.
func (s *Server) recordFinish(d *wire.Decoder, e *wire.Encoder) error {
	id := d.U64()
	sess, ok := s.sessions[id]
	if !ok {
		return fmt.Errorf("server: unknown record session %d", id)
	}
	delete(s.sessions, id)
	spec := core.RecordSpec{Creator: sess.creator, SilenceElimination: sess.silence, Heterogeneous: sess.hetero}
	if sess.video != nil {
		spec.Video = media.NewSliceSource(sess.video.units, sess.video.rate, sess.video.unitBytes)
	}
	if sess.audio != nil {
		spec.Audio = media.NewSliceSource(sess.audio.units, sess.audio.rate, sess.audio.unitBytes)
	}
	rec, err := s.fs.Record(spec)
	if err != nil {
		return err
	}
	s.fs.Manager().RunUntilDone()
	r, err := rec.Finish()
	if err != nil {
		return err
	}
	e.U64(uint64(r.ID)).I64(int64(r.Length()))
	return nil
}

func (s *Server) play(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	id := rope.ID(d.U64())
	medium, err := rope.MediumFromCode(d.U16())
	if err != nil {
		return err
	}
	start := time.Duration(d.I64())
	dur := time.Duration(d.I64())
	readAhead := int(d.U32())
	className := d.Str()
	if d.Err() != nil {
		return d.Err()
	}
	class := s.fs.Options().QoSDefault
	if className != "" && className != "default" {
		if class, err = continuity.ParseClass(className); err != nil {
			return err
		}
	}
	h, err := s.fs.Play(user, id, medium, start, dur, msm.PlanOptions{ReadAhead: readAhead, Class: class})
	if err != nil {
		return err
	}
	s.fs.Manager().RunUntilDone()
	violations, err := s.fs.PlayViolations(h)
	if err != nil {
		return err
	}
	var blocks, cacheHits, shed int
	stride := 1
	var startAt time.Duration
	for _, req := range h.Requests() {
		p, err := s.fs.Manager().Progress(req)
		if err != nil {
			return err
		}
		blocks += p.BlocksServed
		cacheHits += p.CacheHits
		shed += p.ShedBlocks
		if p.Stride > stride {
			stride = p.Stride
		}
		if p.StartTime > startAt {
			startAt = p.StartTime
		}
	}
	e.U32(uint32(violations)).U32(uint32(blocks)).I64(int64(startAt)).U32(uint32(cacheHits)).
		// QoS section: the class the request ran under, the final
		// sub-sampling stride (worst across the handle's media), and the
		// blocks skipped by load shedding.
		Str(class.String()).U16(uint16(stride)).U32(uint32(shed))
	return nil
}

func (s *Server) fetch(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	id := rope.ID(d.U64())
	medium, err := rope.MediumFromCode(d.U16())
	if err != nil {
		return err
	}
	start := time.Duration(d.I64())
	dur := time.Duration(d.I64())
	if d.Err() != nil {
		return d.Err()
	}
	// Each unit is lent by the file system — a slice of the platters —
	// and copied once, here, into the buffer the socket write sends;
	// nothing lent outlives the visit, which runs under s.mu. The count
	// goes first on the wire and is known last, so it is patched.
	at := e.Len()
	e.U32(0)
	n := uint32(0)
	err = s.fs.VisitUnits(user, id, medium, start, dur, func(unit []byte) error {
		if e.Len()+4+len(unit) > s.maxReply {
			return fmt.Errorf("server: FETCH reply exceeds %d bytes; fetch a shorter interval", s.maxReply)
		}
		e.Blob(unit)
		n++
		return nil
	})
	if err != nil {
		return err
	}
	e.SetU32(at, n)
	return nil
}

func (s *Server) insert(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	base := rope.ID(d.U64())
	pos := time.Duration(d.I64())
	medium, err := rope.MediumFromCode(d.U16())
	if err != nil {
		return err
	}
	with := rope.ID(d.U64())
	wStart := time.Duration(d.I64())
	wDur := time.Duration(d.I64())
	if d.Err() != nil {
		return d.Err()
	}
	res, err := s.fs.Insert(user, base, pos, medium, with, wStart, wDur)
	if err != nil {
		return err
	}
	e.U32(uint32(res.CopiedBlocks()))
	return nil
}

func (s *Server) replace(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	base := rope.ID(d.U64())
	medium, err := rope.MediumFromCode(d.U16())
	if err != nil {
		return err
	}
	bStart := time.Duration(d.I64())
	bDur := time.Duration(d.I64())
	with := rope.ID(d.U64())
	wStart := time.Duration(d.I64())
	wDur := time.Duration(d.I64())
	if d.Err() != nil {
		return d.Err()
	}
	res, err := s.fs.Replace(user, base, medium, bStart, bDur, with, wStart, wDur)
	if err != nil {
		return err
	}
	e.U32(uint32(res.CopiedBlocks()))
	return nil
}

func (s *Server) substring(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	base := rope.ID(d.U64())
	medium, err := rope.MediumFromCode(d.U16())
	if err != nil {
		return err
	}
	start := time.Duration(d.I64())
	dur := time.Duration(d.I64())
	if d.Err() != nil {
		return d.Err()
	}
	out, _, err := s.fs.Substring(user, base, medium, start, dur)
	if err != nil {
		return err
	}
	e.U64(uint64(out.ID))
	return nil
}

func (s *Server) concate(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	r1 := rope.ID(d.U64())
	r2 := rope.ID(d.U64())
	if d.Err() != nil {
		return d.Err()
	}
	out, res, err := s.fs.Concate(user, r1, r2)
	if err != nil {
		return err
	}
	e.U64(uint64(out.ID)).U32(uint32(res.CopiedBlocks()))
	return nil
}

func (s *Server) deleteRange(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	base := rope.ID(d.U64())
	medium, err := rope.MediumFromCode(d.U16())
	if err != nil {
		return err
	}
	start := time.Duration(d.I64())
	dur := time.Duration(d.I64())
	if d.Err() != nil {
		return d.Err()
	}
	res, err := s.fs.DeleteRange(user, base, medium, start, dur)
	if err != nil {
		return err
	}
	e.U32(uint32(res.CopiedBlocks()))
	return nil
}

func (s *Server) deleteRope(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	id := rope.ID(d.U64())
	if d.Err() != nil {
		return d.Err()
	}
	reclaimed, err := s.fs.DeleteRope(user, id)
	if err != nil {
		return err
	}
	e.U32(uint32(len(reclaimed)))
	return nil
}

func (s *Server) ropeInfo(d *wire.Decoder, e *wire.Encoder) error {
	id := rope.ID(d.U64())
	if d.Err() != nil {
		return d.Err()
	}
	r, ok := s.fs.Ropes().Get(id)
	if !ok {
		return fmt.Errorf("server: unknown rope %d", id)
	}
	hasVideo, hasAudio := r.Components()
	e.Str(r.Creator).
		I64(int64(r.Length())).
		U32(uint32(len(r.Intervals))).
		Bool(hasVideo).
		Bool(hasAudio).
		U32(uint32(len(r.Strands())))
	return nil
}

func (s *Server) listRopes(d *wire.Decoder, e *wire.Encoder) error {
	ids := s.fs.Ropes().IDs()
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U64(uint64(id))
	}
	return nil
}

func (s *Server) stats(d *wire.Decoder, e *wire.Encoder) error {
	mgr := s.fs.Manager()
	st := mgr.Stats()
	e.F64(s.fs.Occupancy()).
		U32(uint32(s.fs.Strands().Len())).
		U32(uint32(s.fs.Ropes().Len())).
		U64(st.Rounds).
		U32(uint32(mgr.K())).
		U32(uint32(mgr.ActiveRequests())).
		// Interval-cache section: live cache-served followers, lifetime
		// hit count, then the cache's own occupancy snapshot (zeros
		// when caching is disabled).
		U32(uint32(mgr.CacheServed())).
		U64(st.CacheHits)
	var bytes, capacity uint64
	var intervals uint32
	if c := mgr.Cache(); c != nil {
		cs := c.Stats()
		bytes, capacity = uint64(cs.Bytes), uint64(cs.Capacity)
		intervals = uint32(cs.Intervals)
	}
	e.U64(bytes).U64(capacity).U32(intervals)
	// Fault-tolerance section: the degradation ladder's tier counters.
	e.U64(st.Retries).U64(st.DegradedBlocks).U64(st.FaultStops)
	// QoS section: per-class live populations (best-effort, standard,
	// premium) and the lifetime shedding counters.
	qs := mgr.QoSStats()
	for c := 0; c < continuity.NumClasses; c++ {
		e.U32(uint32(qs[c].Active)).U32(uint32(qs[c].Degraded)).F64(qs[c].EffectiveRate)
	}
	e.U64(st.Promotions).U64(st.LoadDemotions).U64(st.ShedBlocks)
	// Mirror-resilience section: per-spindle health over a mirrored
	// array (spindle count 0 when mirroring is off, so the section stays
	// fixed-shape), the running repair's chunk cursor, and the lifetime
	// repair-chunk count.
	arr := s.fs.Array()
	if arr != nil && arr.Mirrored() {
		e.U32(uint32(arr.Spindles()))
		for i := 0; i < arr.Spindles(); i++ {
			e.U16(uint16(arr.SpindleState(i)))
		}
	} else {
		e.U32(0)
	}
	done, total := mgr.RepairProgress()
	e.U32(uint32(done)).U32(uint32(total)).U64(st.RebuildBlocks)
	return nil
}

// rebuild replaces a failed spindle of a mirrored array with a fresh
// device and drives the online rebuild to completion under the virtual
// clock, returning the spindle's final state and the lifetime repair-
// chunk count. The caller must hold s.mu.
func (s *Server) rebuild(d *wire.Decoder, e *wire.Encoder) error {
	spindle := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	mgr := s.fs.Manager()
	if err := mgr.Rebuild(spindle); err != nil {
		return err
	}
	mgr.RunUntilDone()
	arr := s.fs.Array()
	e.Str(arr.SpindleState(spindle).String()).U64(mgr.Stats().RebuildBlocks)
	return nil
}

func (s *Server) textWrite(d *wire.Decoder, e *wire.Encoder) error {
	name := d.Str()
	data := d.Blob()
	if d.Err() != nil {
		return d.Err()
	}
	return s.fs.Text().Write(name, data)
}

func (s *Server) textRead(d *wire.Decoder, e *wire.Encoder) error {
	name := d.Str()
	if d.Err() != nil {
		return d.Err()
	}
	data, err := s.fs.Text().Read(name)
	if err != nil {
		return err
	}
	e.Blob(data)
	return nil
}

func (s *Server) setAccess(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	id := rope.ID(d.U64())
	// Count bounds each list by what the body can hold before it sizes
	// an allocation: 23 bytes can claim 2³²−1 names.
	nPlay := d.Count(4)
	play := make([]string, 0, nPlay)
	for i := 0; i < nPlay; i++ {
		play = append(play, d.Str())
	}
	nEdit := d.Count(4)
	edit := make([]string, 0, nEdit)
	for i := 0; i < nEdit; i++ {
		edit = append(edit, d.Str())
	}
	if d.Err() != nil {
		return d.Err()
	}
	r, ok := s.fs.Ropes().Get(id)
	if !ok {
		return fmt.Errorf("server: unknown rope %d", id)
	}
	if user != r.Creator {
		return fmt.Errorf("server: only the creator may change access lists of rope %d", id)
	}
	r.PlayAccess = play
	r.EditAccess = edit
	return nil
}

func (s *Server) addTrigger(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	id := rope.ID(d.U64())
	at := time.Duration(d.I64())
	text := d.Str()
	if d.Err() != nil {
		return d.Err()
	}
	return s.fs.AddTrigger(user, id, at, text)
}

func (s *Server) triggers(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	id := rope.ID(d.U64())
	if d.Err() != nil {
		return d.Err()
	}
	trigs, err := s.fs.Triggers(user, id)
	if err != nil {
		return err
	}
	e.U32(uint32(len(trigs)))
	for _, t := range trigs {
		e.I64(int64(t.At))
		e.Str(t.Text)
	}
	return nil
}

func (s *Server) flatten(d *wire.Decoder, e *wire.Encoder) error {
	user := d.Str()
	id := rope.ID(d.U64())
	if d.Err() != nil {
		return d.Err()
	}
	res, err := s.fs.Flatten(user, id)
	if err != nil {
		return err
	}
	e.U32(uint32(len(res.Reclaimed)))
	return nil
}

func (s *Server) check(d *wire.Decoder, e *wire.Encoder) error {
	if err := s.fs.Sync(); err != nil {
		return err
	}
	problems := s.fs.Check()
	e.U32(uint32(len(problems)))
	for _, p := range problems {
		e.Str(p.Kind)
		e.Str(p.Detail)
	}
	return nil
}

func (s *Server) textList(d *wire.Decoder, e *wire.Encoder) error {
	names := s.fs.Text().List()
	e.U32(uint32(len(names)))
	for _, n := range names {
		e.Str(n)
	}
	return nil
}
