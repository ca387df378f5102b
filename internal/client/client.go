// Package client is the rope stub library of the paper's prototype:
// "applications are compiled with a rope stub library which uses
// remote procedure calls to contact the MRS" (§5.2). Every method maps
// one-to-one onto a wire operation.
package client

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/media"
	"mmfs/internal/obs"
	"mmfs/internal/rope"
	"mmfs/internal/wire"
)

// Options harden a dialed client against a slow or flapping server.
// The zero value preserves the original behavior: no timeouts, no
// retries.
type Options struct {
	// DialTimeout bounds each connection attempt; 0 means no limit.
	DialTimeout time.Duration
	// RPCTimeout bounds one full request/response round trip; 0 means
	// no limit.
	RPCTimeout time.Duration
	// Retries is how many times a transport-level failure (dial error,
	// torn connection, timeout) is retried after redialing. Server-side
	// errors are never retried — the server answered. Note a retry
	// re-sends the request: a non-idempotent op whose response was lost
	// in flight may execute twice.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt
	// (default 50ms when Retries > 0).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 2s).
	MaxBackoff time.Duration
}

// withDefaults fills the backoff defaults in.
func (o Options) withDefaults() Options {
	if o.Retries > 0 {
		if o.Backoff <= 0 {
			o.Backoff = 50 * time.Millisecond
		}
		if o.MaxBackoff <= 0 {
			o.MaxBackoff = 2 * time.Second
		}
	}
	return o
}

// Client is a connection to an MRS server. Safe for concurrent use;
// requests are serialized on the connection.
type Client struct {
	mu sync.Mutex
	// conn carries one framed RPC at a time. guarded by mu
	conn net.Conn
	// addr is where a retry redials.
	addr string
	opts Options
	// fetchBuf receives every FETCH reply (see Fetch) and keeps the
	// largest one's capacity, as a server connection does. guarded by mu
	fetchBuf []byte
}

// Dial connects to an MRS server with no timeouts or retries.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to an MRS server with the given hardening
// options.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	conn, err := dial(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, addr: addr, opts: opts}, nil
}

// dial makes one connection attempt under the dial timeout.
func dial(addr string, opts Options) (net.Conn, error) {
	if opts.DialTimeout > 0 {
		return net.DialTimeout("tcp", addr, opts.DialTimeout)
	}
	return net.Dial("tcp", addr)
}

// Close tears the connection down.
func (c *Client) Close() error {
	//lint:ignore lockguard Close must interrupt an in-flight call, so it bypasses mu; net.Conn.Close is safe concurrently
	conn := c.conn
	if conn == nil {
		return nil // mid-redial: nothing to tear down
	}
	return conn.Close()
}

// call performs one RPC round trip, redialing and retrying transport
// failures under the client's Options. The request body in e (nil for
// an op without one) is framed in place; the reply is decoded in place
// too, so what the decoder's Blob returns are views of the one reply
// frame, which the caller owns. Given a decode (Fetch's), the reply is
// read into fetchBuf instead and decode runs over it under mu: it must
// copy what it keeps, and call returns its error and no decoder.
func (c *Client) call(op wire.Op, e *wire.Encoder, decode ...func(*wire.Decoder) error) (*wire.Decoder, error) {
	if e == nil {
		e = wire.NewEncoder()
	}
	req, err := e.Frame(uint16(op))
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	into := new([]byte)
	if len(decode) > 0 {
		into = &c.fetchBuf
	}
	backoff := c.opts.Backoff
	for attempt := 0; ; attempt++ {
		if c.conn == nil {
			// A previous attempt tore the connection down; redial
			// before re-sending.
			var conn net.Conn
			conn, err = dial(c.addr, c.opts)
			if conn != nil {
				c.conn = conn
			}
		}
		if c.conn != nil {
			var d *wire.Decoder
			// The stub is a blocking RPC client: mu serializes whole
			// calls on the shared conn, so the round trip (bounded by
			// RPCTimeout deadlines) must happen inside the lock.
			d, err = c.roundTrip(req, into)
			if err == nil && len(decode) > 0 {
				return nil, decode[0](d)
			}
			if err == nil {
				return d, nil
			}
			if retryable(err) {
				// The connection is suspect after any transport
				// failure; the redial above replaces it.
				c.conn.Close()
				c.conn = nil
			}
		}
		if attempt >= c.opts.Retries || !retryable(err) {
			return nil, err
		}
		// Retry backoff stays under mu for the same reason: a second
		// caller must not interleave a request into a half-recovered
		// connection mid-retry.
		time.Sleep(backoff)
		if backoff *= 2; backoff > c.opts.MaxBackoff {
			backoff = c.opts.MaxBackoff
		}
	}
}

// roundTrip sends one framed request in a single Write and reads its
// response, into *into, under the RPC timeout. The caller must hold c.mu.
func (c *Client) roundTrip(req []byte, into *[]byte) (*wire.Decoder, error) {
	if c.opts.RPCTimeout > 0 {
		//lint:ignore noerrdrop a failed deadline set means a dead conn, which the write below surfaces
		_ = c.conn.SetDeadline(time.Now().Add(c.opts.RPCTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if _, err := c.conn.Write(req); err != nil {
		return nil, err
	}
	frame, err := wire.ReadFrameInto(c.conn, *into)
	if err != nil {
		return nil, err
	}
	*into = frame
	resp, err := wire.ParseResponse(frame)
	if err != nil {
		return nil, err
	}
	return wire.NewDecoder(resp), nil
}

// retryable reports whether an error is transport-level (the request
// may never have reached the server) as opposed to a server-side
// response, which must not be re-executed.
func retryable(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr)
}

// RecordSession is an in-progress remote RECORD.
type RecordSession struct {
	c  *Client
	id uint64
}

// MediumSpec describes one recorded medium.
type MediumSpec struct {
	// UnitBytes is the unit size in bytes.
	UnitBytes int
	// Rate is the capture rate in units/second.
	Rate float64
}

// RecordStart begins a remote RECORD; pass nil for an absent medium.
func (c *Client) RecordStart(creator string, video, audio *MediumSpec, silenceElimination bool) (*RecordSession, error) {
	return c.recordStart(creator, video, audio, silenceElimination, false)
}

// RecordStartHeterogeneous begins a remote RECORD using §3.3.3's
// heterogeneous-block storage: both media land in one strand of
// composite units.
func (c *Client) RecordStartHeterogeneous(creator string, video, audio *MediumSpec) (*RecordSession, error) {
	return c.recordStart(creator, video, audio, false, true)
}

func (c *Client) recordStart(creator string, video, audio *MediumSpec, silenceElimination, hetero bool) (*RecordSession, error) {
	e := wire.NewEncoder().Str(creator)
	if video != nil {
		e.Bool(true).U32(uint32(video.UnitBytes)).F64(video.Rate)
	} else {
		e.Bool(false).U32(0).F64(0)
	}
	if audio != nil {
		e.Bool(true).U32(uint32(audio.UnitBytes)).F64(audio.Rate)
	} else {
		e.Bool(false).U32(0).F64(0)
	}
	e.Bool(silenceElimination)
	e.Bool(hetero)
	d, err := c.call(wire.OpRecordStart, e)
	if err != nil {
		return nil, err
	}
	id := d.U64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	return &RecordSession{c: c, id: id}, nil
}

// Append uploads captured units for one medium (VideoOnly or
// AudioOnly).
func (s *RecordSession) Append(m rope.Medium, units [][]byte) error {
	const batch = 64
	e := wire.NewEncoder()
	for len(units) > 0 {
		n := min(len(units), batch)
		size := 8 + 2 + 4
		for _, u := range units[:n] {
			size += 4 + len(u)
		}
		e.Reset()
		e.Grow(size) // the batch is copied once, into a buffer sized for it
		e.U64(s.id).U16(m.Code()).U32(uint32(n))
		for _, u := range units[:n] {
			e.Blob(u)
		}
		if _, err := s.c.call(wire.OpRecordAppend, e); err != nil {
			return err
		}
		units = units[n:]
	}
	return nil
}

// Finish completes the RECORD, returning the new rope's ID and length.
func (s *RecordSession) Finish() (rope.ID, time.Duration, error) {
	d, err := s.c.call(wire.OpRecordFinish, wire.NewEncoder().U64(s.id))
	if err != nil {
		return 0, 0, err
	}
	id := rope.ID(d.U64())
	length := time.Duration(d.I64())
	return id, length, d.Err()
}

// RecordClip uploads and records a whole clip from in-memory sources
// in one call; a convenience for examples and tests.
func (c *Client) RecordClip(creator string, video, audio media.Source, silenceElimination bool) (rope.ID, time.Duration, error) {
	var vSpec, aSpec *MediumSpec
	if video != nil {
		vSpec = &MediumSpec{UnitBytes: video.UnitBytes(), Rate: video.Rate()}
	}
	if audio != nil {
		aSpec = &MediumSpec{UnitBytes: audio.UnitBytes(), Rate: audio.Rate()}
	}
	sess, err := c.RecordStart(creator, vSpec, aSpec, silenceElimination)
	if err != nil {
		return 0, 0, err
	}
	drain := func(m rope.Medium, src media.Source) error {
		var units [][]byte
		for {
			u, ok := src.Next()
			if !ok {
				break
			}
			units = append(units, u.Payload)
		}
		return sess.Append(m, units)
	}
	if video != nil {
		if err := drain(rope.VideoOnly, video); err != nil {
			return 0, 0, err
		}
	}
	if audio != nil {
		if err := drain(rope.AudioOnly, audio); err != nil {
			return 0, 0, err
		}
	}
	return sess.Finish()
}

// PlayResult summarizes a remote playback run.
type PlayResult struct {
	// Violations is the number of continuity violations observed.
	Violations int
	// Blocks is the number of media blocks retrieved.
	Blocks int
	// Startup is the virtual time at which display began.
	Startup time.Duration
	// CacheHits is the number of blocks served from the server's
	// interval cache instead of the disk.
	CacheHits int
	// Class is the QoS class the server ran the request under.
	Class string
	// Stride is the final sub-sampling stride: 1 is full rate, s > 1
	// means only every s-th block was fetched under load shedding.
	Stride int
	// ShedBlocks is the number of blocks skipped by load shedding.
	ShedBlocks int
}

// Play runs a remote PLAY to completion and returns its continuity
// statistics. class names the QoS class ("premium", "standard",
// "best-effort"); "" or "default" uses the server's configured default.
func (c *Client) Play(user string, id rope.ID, m rope.Medium, start, dur time.Duration, readAhead int, class string) (PlayResult, error) {
	e := wire.NewEncoder().Str(user).U64(uint64(id)).U16(m.Code()).I64(int64(start)).I64(int64(dur)).U32(uint32(readAhead)).Str(class)
	d, err := c.call(wire.OpPlay, e)
	if err != nil {
		return PlayResult{}, err
	}
	res := PlayResult{
		Violations: int(d.U32()),
		Blocks:     int(d.U32()),
		Startup:    time.Duration(d.I64()),
		CacheHits:  int(d.U32()),
		Class:      d.Str(),
		Stride:     int(d.U16()),
		ShedBlocks: int(d.U32()),
	}
	return res, d.Err()
}

// Fetch retrieves one medium's unit payloads for an interval. The
// units are the caller's: each a copy (cap == len) out of the reply,
// which lands in a buffer the client keeps — DESIGN's frame-view rule.
func (c *Client) Fetch(user string, id rope.ID, m rope.Medium, start, dur time.Duration) ([][]byte, error) {
	e := wire.NewEncoder().Str(user).U64(uint64(id)).U16(m.Code()).I64(int64(start)).I64(int64(dur))
	var out [][]byte
	_, err := c.call(wire.OpFetch, e, func(d *wire.Decoder) error {
		n := d.Count(4)
		out = make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			view := d.Blob()
			unit := make([]byte, len(view))
			copy(unit, view)
			out = append(out, unit)
		}
		return d.Err()
	})
	return out, err
}

// Insert performs a remote INSERT, returning the number of blocks the
// scattering-maintenance algorithm copied.
func (c *Client) Insert(user string, base rope.ID, pos time.Duration, m rope.Medium, with rope.ID, withStart, withDur time.Duration) (int, error) {
	e := wire.NewEncoder().Str(user).U64(uint64(base)).I64(int64(pos)).U16(m.Code()).
		U64(uint64(with)).I64(int64(withStart)).I64(int64(withDur))
	d, err := c.call(wire.OpInsert, e)
	if err != nil {
		return 0, err
	}
	copied := int(d.U32())
	return copied, d.Err()
}

// Replace performs a remote REPLACE.
func (c *Client) Replace(user string, base rope.ID, m rope.Medium, baseStart, baseDur time.Duration, with rope.ID, withStart, withDur time.Duration) (int, error) {
	e := wire.NewEncoder().Str(user).U64(uint64(base)).U16(m.Code()).
		I64(int64(baseStart)).I64(int64(baseDur)).
		U64(uint64(with)).I64(int64(withStart)).I64(int64(withDur))
	d, err := c.call(wire.OpReplace, e)
	if err != nil {
		return 0, err
	}
	copied := int(d.U32())
	return copied, d.Err()
}

// Substring performs a remote SUBSTRING, returning the new rope ID.
func (c *Client) Substring(user string, base rope.ID, m rope.Medium, start, dur time.Duration) (rope.ID, error) {
	e := wire.NewEncoder().Str(user).U64(uint64(base)).U16(m.Code()).I64(int64(start)).I64(int64(dur))
	d, err := c.call(wire.OpSubstring, e)
	if err != nil {
		return 0, err
	}
	id := rope.ID(d.U64())
	return id, d.Err()
}

// Concate performs a remote CONCATE, returning the new rope ID and the
// blocks copied at the junction.
func (c *Client) Concate(user string, r1, r2 rope.ID) (rope.ID, int, error) {
	e := wire.NewEncoder().Str(user).U64(uint64(r1)).U64(uint64(r2))
	d, err := c.call(wire.OpConcate, e)
	if err != nil {
		return 0, 0, err
	}
	id := rope.ID(d.U64())
	copied := int(d.U32())
	return id, copied, d.Err()
}

// DeleteRange performs a remote DELETE of a media interval.
func (c *Client) DeleteRange(user string, base rope.ID, m rope.Medium, start, dur time.Duration) (int, error) {
	e := wire.NewEncoder().Str(user).U64(uint64(base)).U16(m.Code()).I64(int64(start)).I64(int64(dur))
	d, err := c.call(wire.OpDeleteRange, e)
	if err != nil {
		return 0, err
	}
	copied := int(d.U32())
	return copied, d.Err()
}

// DeleteRope removes a rope, returning how many strands were
// reclaimed.
func (c *Client) DeleteRope(user string, id rope.ID) (int, error) {
	e := wire.NewEncoder().Str(user).U64(uint64(id))
	d, err := c.call(wire.OpDeleteRope, e)
	if err != nil {
		return 0, err
	}
	n := int(d.U32())
	return n, d.Err()
}

// RopeInfo describes a stored rope.
type RopeInfo struct {
	Creator   string
	Length    time.Duration
	Intervals int
	HasVideo  bool
	HasAudio  bool
	Strands   int
}

// Info fetches a rope's summary.
func (c *Client) Info(id rope.ID) (RopeInfo, error) {
	d, err := c.call(wire.OpRopeInfo, wire.NewEncoder().U64(uint64(id)))
	if err != nil {
		return RopeInfo{}, err
	}
	info := RopeInfo{
		Creator:   d.Str(),
		Length:    time.Duration(d.I64()),
		Intervals: int(d.U32()),
		HasVideo:  d.Bool(),
		HasAudio:  d.Bool(),
		Strands:   int(d.U32()),
	}
	return info, d.Err()
}

// ListRopes lists stored rope IDs.
func (c *Client) ListRopes() ([]rope.ID, error) {
	d, err := c.call(wire.OpListRopes, nil)
	if err != nil {
		return nil, err
	}
	n := d.Count(8)
	out := make([]rope.ID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rope.ID(d.U64()))
	}
	return out, d.Err()
}

// ServerStats summarizes the file system behind the server.
type ServerStats struct {
	Occupancy      float64
	Strands        int
	Ropes          int
	Rounds         uint64
	K              int
	ActiveRequests int
	// CacheServed is the number of live requests currently fed by the
	// interval cache rather than the disk.
	CacheServed int
	// CacheHits is the lifetime count of blocks served from the cache.
	CacheHits uint64
	// CacheBytes/CacheCapacity are the cache's occupancy and size in
	// bytes (both zero when caching is disabled).
	CacheBytes    uint64
	CacheCapacity uint64
	// CacheIntervals is the number of leader→follower intervals
	// currently formed.
	CacheIntervals int
	// Retries, DegradedBlocks, and FaultStops are the fault-tolerance
	// ladder's lifetime tier counters: in-round re-reads, zero-fill
	// deliveries, and streams stopped after consecutive degradation.
	Retries        uint64
	DegradedBlocks uint64
	FaultStops     uint64
	// Classes is the per-QoS-class live stream population, indexed by
	// continuity.Class (best-effort, standard, premium).
	Classes [continuity.NumClasses]QoSClassStats
	// Promotions, LoadDemotions, and ShedBlocks are the QoS layer's
	// lifetime counters: streams promoted back toward full rate,
	// demotion events (admission-time shedding plus round-pass
	// demotions), and blocks skipped by sub-sampling.
	Promotions    uint64
	LoadDemotions uint64
	ShedBlocks    uint64
	// SpindleStates is the per-spindle health of a mirrored array
	// ("healthy", "suspect", "dead", "rebuilding"); empty when the
	// server does not mirror.
	SpindleStates []string
	// RebuildDone and RebuildTotal are the running rebuild's
	// chunk cursor; both zero when no repair is active.
	RebuildDone  int
	RebuildTotal int
	// RebuildBlocks is the lifetime count of repair chunks copied.
	RebuildBlocks uint64
}

// QoSClassStats summarizes one QoS class's live streams on the server.
type QoSClassStats struct {
	// Active is the class's live PLAY requests.
	Active int
	// Degraded is the subset currently load-shed (stride > 1).
	Degraded int
	// EffectiveRate is the mean delivered unit rate across the class's
	// live plays, 0 when the class is idle.
	EffectiveRate float64
}

// Stats fetches server statistics.
func (c *Client) Stats() (ServerStats, error) {
	d, err := c.call(wire.OpStats, nil)
	if err != nil {
		return ServerStats{}, err
	}
	st := ServerStats{
		Occupancy:      d.F64(),
		Strands:        int(d.U32()),
		Ropes:          int(d.U32()),
		Rounds:         d.U64(),
		K:              int(d.U32()),
		ActiveRequests: int(d.U32()),
		CacheServed:    int(d.U32()),
		CacheHits:      d.U64(),
		CacheBytes:     d.U64(),
		CacheCapacity:  d.U64(),
		CacheIntervals: int(d.U32()),
		Retries:        d.U64(),
		DegradedBlocks: d.U64(),
		FaultStops:     d.U64(),
	}
	for c := 0; c < continuity.NumClasses; c++ {
		st.Classes[c] = QoSClassStats{
			Active:        int(d.U32()),
			Degraded:      int(d.U32()),
			EffectiveRate: d.F64(),
		}
	}
	st.Promotions = d.U64()
	st.LoadDemotions = d.U64()
	st.ShedBlocks = d.U64()
	if n := d.Count(2); n > 0 {
		st.SpindleStates = make([]string, 0, n)
		for i := 0; i < n; i++ {
			st.SpindleStates = append(st.SpindleStates, disk.SpindleState(d.U16()).String())
		}
	}
	st.RebuildDone = int(d.U32())
	st.RebuildTotal = int(d.U32())
	st.RebuildBlocks = d.U64()
	return st, d.Err()
}

// Rebuild replaces failed spindle spindle of the server's mirrored
// array with a fresh device and runs the online rebuild to completion,
// returning the spindle's final health state and the server's lifetime
// repair-chunk count.
func (c *Client) Rebuild(spindle int) (string, uint64, error) {
	d, err := c.call(wire.OpRebuild, wire.NewEncoder().U32(uint32(spindle)))
	if err != nil {
		return "", 0, err
	}
	state := d.Str()
	blocks := d.U64()
	return state, blocks, d.Err()
}

// Metrics fetches a snapshot of every metric the server's
// observability registry holds.
func (c *Client) Metrics() (obs.Snapshot, error) {
	d, err := c.call(wire.OpMetrics, nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	s := wire.DecodeSnapshot(d)
	return s, d.Err()
}

// SetAccess replaces a rope's play and edit access lists; only the
// creator may call it. Empty lists mean open access.
func (c *Client) SetAccess(user string, id rope.ID, play, edit []string) error {
	e := wire.NewEncoder().Str(user).U64(uint64(id)).U32(uint32(len(play)))
	for _, p := range play {
		e.Str(p)
	}
	e.U32(uint32(len(edit)))
	for _, p := range edit {
		e.Str(p)
	}
	_, err := c.call(wire.OpSetAccess, e)
	return err
}

// AddTrigger attaches synchronized text at an offset of a rope
// (Figure 8's trigger information).
func (c *Client) AddTrigger(user string, id rope.ID, at time.Duration, text string) error {
	e := wire.NewEncoder().Str(user).U64(uint64(id)).I64(int64(at)).Str(text)
	_, err := c.call(wire.OpAddTrigger, e)
	return err
}

// TriggerAt is a resolved synchronized-text trigger.
type TriggerAt struct {
	At   time.Duration
	Text string
}

// Triggers lists a rope's triggers with resolved rope-relative times.
func (c *Client) Triggers(user string, id rope.ID) ([]TriggerAt, error) {
	d, err := c.call(wire.OpTriggers, wire.NewEncoder().Str(user).U64(uint64(id)))
	if err != nil {
		return nil, err
	}
	n := d.Count(8 + 4)
	out := make([]TriggerAt, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, TriggerAt{At: time.Duration(d.I64()), Text: d.Str()})
	}
	return out, d.Err()
}

// Flatten merges an edited rope's media into fresh single strands
// (§6.2's strand merging), returning how many old strands were
// reclaimed.
func (c *Client) Flatten(user string, id rope.ID) (int, error) {
	d, err := c.call(wire.OpFlatten, wire.NewEncoder().Str(user).U64(uint64(id)))
	if err != nil {
		return 0, err
	}
	n := int(d.U32())
	return n, d.Err()
}

// Check runs the server-side integrity checker (fsck) and returns its
// findings as "kind: detail" strings; empty means clean.
func (c *Client) Check() ([]string, error) {
	d, err := c.call(wire.OpCheck, nil)
	if err != nil {
		return nil, err
	}
	n := d.Count(4 + 4)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		kind := d.Str()
		detail := d.Str()
		out = append(out, kind+": "+detail)
	}
	return out, d.Err()
}

// TextWrite stores a conventional text file in the media gaps.
func (c *Client) TextWrite(name string, data []byte) error {
	_, err := c.call(wire.OpTextWrite, wire.NewEncoder().Str(name).Blob(data))
	return err
}

// TextRead fetches a text file.
func (c *Client) TextRead(name string) ([]byte, error) {
	d, err := c.call(wire.OpTextRead, wire.NewEncoder().Str(name))
	if err != nil {
		return nil, err
	}
	data := d.Blob()
	return data, d.Err()
}

// TextList lists text files.
func (c *Client) TextList() ([]string, error) {
	d, err := c.call(wire.OpTextList, nil)
	if err != nil {
		return nil, err
	}
	n := d.Count(4)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.Str())
	}
	return out, d.Err()
}
