// Package msm implements the Multimedia Storage Manager — the lower
// layer of the paper's prototype (§5.2): "determination of granularity
// and scattering of strands, enforcing admission control to service
// multiple requests simultaneously, and maintenance of scattering
// while editing". It services the active requests in round-robin
// rounds of k blocks each (§3.4) over the simulated disk and virtual
// clock, detecting any continuity violation (a block arriving after
// its playback deadline, or a recording buffer overflowing).
package msm

import (
	"fmt"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/media"
	"mmfs/internal/strand"
)

// RequestID names an active request; the file system hands it to
// clients, which use it for STOP/PAUSE/RESUME (§4.1: "The file system
// assigns a unique requestID to each request").
type RequestID uint64

// Kind distinguishes retrieval from storage requests.
type Kind int

const (
	// Play is a retrieval (PLAY) request.
	Play Kind = iota
	// Record is a storage (RECORD) request.
	Record
)

// String names the kind.
func (k Kind) String() string {
	if k == Play {
		return "play"
	}
	return "record"
}

// PlannedBlock is one media block in a playback plan. Plans are
// compiled above the MSM (from a strand or from a rope's interval
// list), so a single PLAY request may cross strand boundaries.
type PlannedBlock struct {
	// Reader retrieves the block; nil only for pure-delay blocks.
	Reader *strand.Reader
	// Index is the block number within the reader's strand.
	Index int
	// Duration is the block's playback duration on the display
	// device.
	Duration time.Duration
}

// PlayPlan is everything the MSM needs to service one PLAY request.
type PlayPlan struct {
	// Name labels the request in diagnostics.
	Name string
	// Blocks is the ordered block sequence to retrieve and display.
	Blocks []PlannedBlock
	// Admission describes the request to the admission controller.
	Admission continuity.Request
	// Buffers is the number of block buffers on the display device;
	// the MSM never reads more than Buffers blocks ahead of the
	// display (§3.4: regulation "so as not to overflow the buffering
	// available in the display subsystem").
	Buffers int
	// ReadAhead is the number of blocks prefetched before playback
	// starts (the anti-jitter delay of §3.3.1). It is clamped to
	// Buffers and to the plan length.
	ReadAhead int
	// Class is the request's QoS class. It only matters when the
	// manager has QoS enabled (SetQoS): under overload, standard and
	// best-effort plays may then be admitted load-shed instead of
	// rejected, and are demoted before higher classes when load rises.
	Class continuity.Class
}

// Validate reports an error for an unusable plan.
func (p PlayPlan) Validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("msm: play plan %q has no blocks", p.Name)
	}
	if p.Buffers < 1 {
		return fmt.Errorf("msm: play plan %q has %d buffers", p.Name, p.Buffers)
	}
	for i, b := range p.Blocks {
		if b.Duration <= 0 {
			return fmt.Errorf("msm: play plan %q block %d has duration %v", p.Name, i, b.Duration)
		}
	}
	return p.Admission.Validate()
}

// RecordPlan is everything the MSM needs to service one RECORD
// request.
type RecordPlan struct {
	// Name labels the request in diagnostics.
	Name string
	// Writer receives the captured units.
	Writer *strand.Writer
	// Source produces the units being recorded.
	Source media.Source
	// UnitsPerBlock is the storage granularity q.
	UnitsPerBlock int
	// TotalUnits bounds the recording; 0 records until the source
	// ends.
	TotalUnits uint64
	// Admission describes the request to the admission controller.
	Admission continuity.Request
	// Buffers is the number of block buffers on the capture device;
	// a block whose write has not completed by the time Buffers
	// further blocks have been captured is an overflow violation.
	Buffers int
}

// Validate reports an error for an unusable plan.
func (p RecordPlan) Validate() error {
	if p.Writer == nil || p.Source == nil {
		return fmt.Errorf("msm: record plan %q missing writer or source", p.Name)
	}
	if p.UnitsPerBlock < 1 {
		return fmt.Errorf("msm: record plan %q units/block %d", p.Name, p.UnitsPerBlock)
	}
	if p.Buffers < 1 {
		return fmt.Errorf("msm: record plan %q has %d buffers", p.Name, p.Buffers)
	}
	return p.Admission.Validate()
}

// Cause classifies a continuity violation.
type Cause int

const (
	// CauseLate is the classic continuity violation: the block arrived
	// after its display deadline (or a capture buffer overflowed).
	CauseLate Cause = iota
	// CauseDegraded marks a block delivered as zero-fill after disk
	// faults exhausted the round's retry budget; the stream stays
	// admitted (graceful degradation instead of an aborted play).
	CauseDegraded
	// CauseLoadShed marks the moment rising load demoted the stream to
	// a coarser sub-sampling stride (QoS load shedding). One violation
	// records each quality-change event; the individual skipped blocks
	// are counted (Stats.ShedBlocks), not listed.
	CauseLoadShed
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseDegraded:
		return "degraded"
	case CauseLoadShed:
		return "load-shed"
	}
	return "late"
}

// Violation records one continuity failure.
type Violation struct {
	// Block is the plan index (play) or block number (record).
	Block int
	// Deadline is when the block was needed (display start, or the
	// capture buffer deadline).
	Deadline time.Duration
	// Actual is when the block actually arrived (read completed) or
	// was written.
	Actual time.Duration
	// Cause classifies the violation (late vs degraded delivery).
	Cause Cause
}

// request is the MSM's per-request state.
type request struct {
	id    RequestID
	kind  Kind
	name  string
	adm   continuity.Request
	play  *playState
	rec   *recordState
	done  bool
	pause *pauseState
	// cacheServed marks a request admitted as an interval-cache
	// follower: it charges no disk time and is excluded from the
	// admission set until demoted.
	cacheServed bool
	// needsDemote is set when a cache-served request misses (its
	// interval broke); processDemotions resolves it at the top of the
	// next round.
	needsDemote bool
	// demotedAt is 1 + the plan position of the request's previous
	// demotion (0: never demoted); see processDemotions.
	demotedAt int
	// pendingK, when non-zero, is the k the request waits for to join
	// the sweep (Manager.hold) since pendingAt; clockWaits: see endWait.
	pendingK   int
	pendingAt  time.Duration
	clockWaits bool
	// consecFails counts consecutive degraded block deliveries; it
	// resets on every clean disk read and on Resume, and reaching
	// FaultPolicy.ConsecFailLimit escalates degradation to a stop.
	consecFails int
	// class is the request's QoS class (plays only; records are
	// always charged at full rate).
	class continuity.Class
}

// playState tracks a PLAY request.
type playState struct {
	plan      PlayPlan
	nextFetch int           // next plan index to read
	started   bool          // playback (display) has begun
	startTime time.Duration // display start
	readAhead int
	// pm is the plan map (Manager.planMap): per plan position, the
	// block's display offset and where the plan's stored blocks lie from
	// there on.
	pm []planPos
	// released is releasedBlocks' cursor: its previous answer.
	released   int
	violations []Violation
	// Interval-cache state: a plan is cacheEligible when it reads one
	// strand at consecutive block indices (see planCacheRange);
	// cacheOpen tracks whether the manager currently holds a cache
	// stream for it.
	cacheEligible bool
	cacheOpen     bool
	cacheSID      strand.ID
	cacheEnd      int
	cacheHits     int
	// degraded counts the blocks delivered as zero-fill because disk
	// faults exhausted the retry budget.
	degraded int
	// QoS load-shed state: stride > 1 means the stream is sub-sampled
	// (§3.3.2's skipping machinery run at 1× display time) — only
	// every stride-th plan block counted from strideBase is fetched,
	// the retained neighbor covering the skipped blocks' display
	// time. strideBase re-anchors to nextFetch on every promote or
	// demote so the pattern stays aligned with the play position; shed
	// counts the blocks skipped this way.
	stride     int
	strideBase int
	shed       int
}

// recordState tracks a RECORD request.
type recordState struct {
	plan       RecordPlan
	start      time.Duration // capture start
	blockDur   time.Duration
	nextWrite  int // next block number to push to the writer
	totalBlks  int // total blocks the source will produce
	violations []Violation
	exhausted  bool
}

// pauseState remembers a paused request.
type pauseState struct {
	at          time.Duration
	destructive bool
}

// Progress summarizes a request for clients.
type Progress struct {
	ID         RequestID
	Kind       Kind
	Name       string
	Done       bool
	Paused     bool
	Violations int
	// BlocksServed is blocks fetched (play) or written (record).
	BlocksServed int
	// BlocksTotal is the plan length in blocks.
	BlocksTotal int
	// StartTime is when display/capture began (virtual time).
	StartTime time.Duration
	// CacheHits is blocks served from the interval cache (play only).
	CacheHits int
	// CacheServed reports the request is currently an interval-cache
	// follower charging no disk time.
	CacheServed bool
	// DegradedBlocks is blocks delivered as zero-fill after disk
	// faults exhausted the retry budget (play only).
	DegradedBlocks int
	// ConsecFaults is the current consecutive-degradation count toward
	// the escalation threshold; Resume resets it.
	ConsecFaults int
	// Class is the request's QoS class.
	Class continuity.Class
	// Stride is the current QoS sub-sampling stride: 1 is full rate,
	// s > 1 means only every s-th block is fetched (load shedding).
	Stride int
	// ShedBlocks is blocks skipped by load-shed sub-sampling.
	ShedBlocks int
	// EffectiveRate is the stream's current delivered unit rate,
	// Admission.Rate divided by the stride.
	EffectiveRate float64
}

// planCacheRange reports the strand block range a play plan covers
// when it is interval-cache eligible: every block read from the same
// strand at consecutive indices. FF/REW skip plans, cross-strand rope
// plans, and plans with pure-delay blocks are ineligible.
func planCacheRange(plan PlayPlan) (sid strand.ID, first, end int, ok bool) {
	var st *strand.Strand
	for i, b := range plan.Blocks {
		if b.Reader == nil {
			return 0, 0, 0, false
		}
		if i == 0 {
			st = b.Reader.Strand()
			first = b.Index
			continue
		}
		if b.Reader.Strand() != st || b.Index != first+i {
			return 0, 0, 0, false
		}
	}
	if st == nil {
		return 0, 0, 0, false
	}
	return st.ID(), first, first + len(plan.Blocks), true
}
