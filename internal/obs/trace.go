package obs

import "sync"

// RoundTrace is the record of one storage-manager service round: what
// the round loop did between two successive returns of RunRound. Disk
// and cache figures are deltas over the round, not lifetime totals, so
// a trace window reads as a time series directly. Times are virtual
// (simulation) nanoseconds.
type RoundTrace struct {
	// Round is the 1-based round index (Stats.Rounds after the round).
	Round uint64 `json:"round"`
	// Start is the virtual time at which the round began, in ns.
	Start int64 `json:"start_ns"`
	// K is the blocks-per-request quota at round start (the paper's k).
	K int `json:"k"`
	// Active is the number of disk-bound requests admission control
	// carried at round start (the paper's n); CacheServed counts the
	// followers served from the interval cache on top of it.
	Active      int `json:"active"`
	CacheServed int `json:"cache_served"`
	// StreamsServed is how many requests received service this round.
	StreamsServed int `json:"streams_served"`
	// BlocksRead is the number of media blocks delivered this round
	// (disk reads plus cache hits plus regenerated silence).
	BlocksRead uint64 `json:"blocks_read"`
	// DiskBusyNs is the virtual time the disk spent positioning and
	// transferring during the round.
	DiskBusyNs int64 `json:"disk_busy_ns"`
	// CacheHits is the number of blocks served from the interval cache
	// during the round.
	CacheHits uint64 `json:"cache_hits"`
	// Violations is the number of continuity violations recorded
	// during the round; any nonzero value means a deadline was missed.
	Violations uint64 `json:"violations"`
	// Retries is the number of faulted block reads re-attempted during
	// the round, each charged against the round's retry slack.
	Retries uint64 `json:"retries"`
	// Degraded is the number of blocks delivered as zero-fill during
	// the round after faults exhausted the retry budget.
	Degraded uint64 `json:"degraded"`
	// RetrySlackNs is the retry budget left when the round ended:
	// Eq. 18's measured slack minus the retries' service time.
	RetrySlackNs int64 `json:"retry_slack_ns"`
	// RebuildBlocks is the number of repair chunks the online
	// rebuild engine copied during the round, charged against
	// the leftover slack above.
	RebuildBlocks uint64 `json:"rebuild_blocks,omitempty"`
}

// DefaultTraceRounds is the default trace ring capacity: enough to
// hold several seconds of rounds at video rates while bounding memory.
const DefaultTraceRounds = 1024

// TraceRing is a fixed-capacity ring buffer of the most recent service
// rounds. Safe for concurrent use: the round loop appends under the
// server's lock while HTTP scrapes snapshot concurrently.
type TraceRing struct {
	mu   sync.Mutex
	buf  []RoundTrace
	next int // buf index the next Append writes
}

// NewTraceRing creates a ring holding the last n rounds (n < 1 uses
// DefaultTraceRounds).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = DefaultTraceRounds
	}
	return &TraceRing{buf: make([]RoundTrace, 0, n)}
}

// Append records one round, evicting the oldest when full. The ring's
// full capacity is reserved at construction, so appending is a
// reslice, never an allocation — Append sits on the msm publish
// hot path. A nil ring records nothing.
//
// rt:hotpath
func (t *TraceRing) Append(r RoundTrace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.buf); n < cap(t.buf) {
		t.buf = t.buf[:n+1]
		t.buf[n] = r
	} else {
		t.buf[t.next] = r
		t.next = (t.next + 1) % cap(t.buf)
	}
}

// Snapshot copies the held rounds oldest-first.
func (t *TraceRing) Snapshot() []RoundTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RoundTrace, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}
