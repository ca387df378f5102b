package msm

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"mmfs/internal/alloc"
	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
)

// ErrAdmissionRejected reports that accepting the request would
// violate the real-time constraints of the already-admitted requests.
var ErrAdmissionRejected = errors.New("msm: admission rejected")

// ServiceOrder selects the order requests are serviced within a round.
type ServiceOrder int

const (
	// ArrivalOrder is the paper's baseline: "round-robin servicing of
	// requests in the order in which they are received" (§6.2), which
	// forces admission control to assume the maximum seek between
	// requests.
	ArrivalOrder ServiceOrder = iota
	// ScanOrder implements §6.2's proposed improvement: servicing
	// requests "in the order that minimizes … the separations between
	// blocks" — a C-SCAN sweep over the cylinders of each request's
	// next block, cutting the switch overhead well below the
	// worst-case seek the admission formulas charge.
	ScanOrder
)

// String names the order.
func (o ServiceOrder) String() string {
	if o == ScanOrder {
		return "scan"
	}
	return "arrival"
}

// TransitionPolicy selects how the manager grows k when an admission
// raises it.
type TransitionPolicy int

const (
	// Stepwise is the paper's algorithm: k grows by one per round
	// under the transient-safe bound (Eq. 18), guaranteeing
	// continuity during the transition.
	Stepwise TransitionPolicy = iota
	// NaiveJump switches directly from k_old to k_new; the paper
	// shows this can cause transient discontinuities ("the time
	// spent to transfer k_new blocks may exceed the playback
	// duration of k_old blocks"). Provided for the EXP-TR
	// experiment.
	NaiveJump
)

// Stats counts manager activity.
type Stats struct {
	Rounds          uint64
	BlocksFetched   uint64
	BlocksWritten   uint64
	SilenceBlocks   uint64
	IdleTime        time.Duration
	TransitionSteps uint64
	// CacheHits is the subset of BlocksFetched served from the
	// interval cache at zero disk time.
	CacheHits uint64
	// Demotions counts cache-served requests whose interval broke and
	// that went back through full admission.
	Demotions uint64
	// Violations is the total number of continuity violations recorded
	// across all requests (each one is also in the per-request lists).
	Violations uint64
	// Retries counts block reads re-attempted within a round after a
	// transient disk fault, each charged against the round's slack; a
	// faulted run's block-by-block re-read counts as one.
	Retries uint64
	// DegradedBlocks counts blocks delivered as zero-fill because
	// faults exhausted the retry budget (graceful degradation).
	DegradedBlocks uint64
	// FaultStops counts requests stopped after ConsecFailLimit
	// consecutive degraded deliveries (the escalation tier).
	FaultStops uint64
	// Promotions counts QoS promotions: a load-shed stream stepped
	// back toward full rate by freed capacity.
	Promotions uint64
	// LoadDemotions counts QoS load-shed demotions: admission-time
	// shedding for a higher-class candidate plus round-pass demotions
	// under rising load.
	LoadDemotions uint64
	// ShedBlocks counts plan blocks skipped (never fetched) by
	// load-shed sub-sampling; the retained neighbor covers their
	// display time.
	ShedBlocks uint64
	// RebuildBlocks counts repair chunks (one spindle cylinder each)
	// copied by the online rebuild engine, every one charged
	// against a round's measured slack.
	RebuildBlocks uint64
}

// FaultPolicy configures the manager's fault-tolerant service path.
// Only faults injected by internal/fault trigger it; a broken plan is
// still a programming error that kills the request.
type FaultPolicy struct {
	// MaxRetries bounds the in-round re-reads of one block after a
	// transient fault. Retries are additionally bounded by the round's
	// measured slack (k·γ − n·α − n·k·β of virtual time): an attempt
	// whose estimated service time exceeds the remaining slack is not
	// made, and the block degrades instead.
	MaxRetries int
	// ConsecFailLimit escalates degradation: a request whose last
	// ConsecFailLimit block deliveries were all degraded is stopped
	// (it is chewing through the shared slack every round and its
	// output is unusable anyway). 0 disables escalation. The counter
	// resets on every clean read and on Resume.
	ConsecFailLimit int
}

// DefaultFaultPolicy is the policy managers start with: two retries
// per block, escalation after eight consecutive degraded deliveries.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{MaxRetries: 2, ConsecFailLimit: 8}
}

// Manager is the Multimedia Storage Manager: it owns the disk, the
// virtual clock, and the active request table, and services requests
// in rounds of k blocks per request.
type Manager struct {
	d      disk.Device
	clock  virtualClock
	adm    continuity.Admission
	k      int
	policy TransitionPolicy
	order  ServiceOrder
	// reqs is the live request table in admission order; finishDrained
	// moves finished requests to retired, which keeps their progress and
	// violation reports reachable without the per-round loops paying for
	// every request the manager has ever seen.
	reqs    []*request
	retired map[RequestID]*request
	nextID  RequestID
	stats   Stats
	// cache, when set, serves trailing plays of a strand range from
	// the blocks a leading play just fetched (interval caching).
	cache *cache.Cache
	// ft is the fault-tolerant service policy. (The retry budget it
	// spends is per lane: lane.retrySlack.)
	ft FaultPolicy
	// Per-round scratch storage, reused to keep the service loop
	// allocation-free (the round loop is the hot path). Service-time
	// scratch (a step's per-block arrivals, degraded marks included, and
	// the block-payload buffer) lives on the lanes (lane.got,
	// lane.blockBuf).
	scratchAct []*request
	// serial is the lane over the whole logical device: it services what
	// no parallel lane can take — on a single device, everything — and
	// a round ends, for the clock, where it does.
	serial *lane
	// array and lanes are the parallel half of the round when d is a
	// disk.Array of degree > 1: one lane per spindle, its sub-round
	// overlapping the others' in virtual time. A single device has none.
	array *disk.Array
	lanes []*lane
	// rt is the resident table, one set per spindle (one in all on a
	// single device), and what is derived from it, kept until an event
	// changes what it is built from; see residentSets. scratchSets is
	// where decideAdmit lists the sets a candidate touches.
	rt          residentTable
	scratchSets [][]continuity.Request
	// classes and groupSec key a play's plan map (stripeKey), which its
	// extent and its lane (laneSpindle) read: the array's steering
	// classes and the sectors in a stripe group. Zero on a single device;
	// classes is zero too when a word cannot hold a bit per class. A plan
	// compiled for another key is refused (AdmitPlay).
	classes  int
	groupSec int
	// steerSp is the spindle each steering class is read from under the
	// array's steer table of generation steerGen (classSpindles).
	steerSp  []int
	steerGen uint64
	// obs, when set, publishes Stats and per-round trace records into a
	// metrics registry (see obs.go).
	obs roundObs
	// qos enables load-driven graceful degradation (see qos.go); the
	// zero policy keeps admission binary. scratchQoS is the promotion
	// queue's arena.
	qos        QoSPolicy
	scratchQoS []*request
	// advancers are the fault layers wrapping the device(s); RunRound
	// ticks their virtual round counters so die=<round> scenarios fire
	// exactly on round boundaries (see rebuild.go).
	advancers []roundAdvancer
	// kTarget, when above k, grows k by one per round (§3.4; raiseK).
	// pending counts the requests waiting to join at their k (hold).
	kTarget int
	pending int
	// rb drives the online rebuild engine (see rebuild.go).
	rb repairCtl
	// finish is raised by every event that leaves finishDrained something
	// to do — an end, a play's last block, a record's exhaustion — and
	// demoting by every needsDemote set; each pass clears its own.
	finish, demoting bool
	// spc and sectorTime are the device's sectors per cylinder and the
	// time one sector takes past the head: a run never leaves the
	// cylinder it starts in, and its blocks arrive as its transfer passes
	// their last sectors (lane.readRun).
	spc        int
	sectorTime time.Duration
}

// DeviceFor is the continuity model's view of a disk geometry — its
// transfer rate and the bounds of its positioning time: the one place a
// geometry becomes the device the admission formulas are evaluated on.
func DeviceFor(g disk.Geometry) continuity.Device {
	return continuity.Device{
		TransferRate: g.TransferRateBits(),
		MaxAccess:    continuity.Seconds(g.MaxAccessTime()),
		MinAccess:    continuity.Seconds(alloc.MinAccessTime(g)),
	}
}

// New creates a manager over the disk with the given admission
// controller. The fault policy defaults to DefaultFaultPolicy (it only
// engages on injected faults, so it is safe always-on).
func New(d disk.Device, adm continuity.Admission) *Manager {
	g := d.Geometry()
	m := &Manager{d: d, adm: adm, k: 1, nextID: 1, ft: DefaultFaultPolicy(),
		spc: g.SectorsPerCylinder(), sectorTime: g.SectorTime()}
	m.retired = make(map[RequestID]*request)
	m.serial = &lane{m: m, spindle: -1}
	// One lane and one resident set per spindle of a striped array; no
	// parallel lanes and a table of one set on a single device.
	if a, ok := d.(*disk.Array); ok && a.Spindles() > 1 {
		m.array = a
		m.lanes = make([]*lane, a.Spindles())
		for i := range m.lanes {
			m.lanes[i] = &lane{m: m, spindle: i}
		}
		m.steerSp = make([]int, a.SteerClasses())
	}
	m.groupSec, m.classes = stripeKey(d)
	m.rt.sets = make([][]continuity.Request, max(1, len(m.lanes)))
	m.rb.rate = DefaultRebuildRate
	m.probeAdvancers()
	if m.RepairActive() {
		// A repair another manager started rides this one's rounds now;
		// without a chunk buffer every copy would fail, and the array
		// would count the failures against the healthy source spindle.
		m.ensureRepairBuf()
	}
	return m
}

// SetPolicy selects the k-transition policy.
func (m *Manager) SetPolicy(p TransitionPolicy) { m.policy = p }

// SetServiceOrder selects the within-round service order.
func (m *Manager) SetServiceOrder(o ServiceOrder) { m.order = o }

// Now reports the current virtual time.
func (m *Manager) Now() time.Duration { return m.clock.Now() }

// K reports the current blocks-per-round.
func (m *Manager) K() int { return m.k }

// ForceK overrides the blocks-per-round; experiments use it to search
// for the minimal feasible k independently of the admission formulas. It
// ends any transition: a request waiting for its k joins next round.
func (m *Manager) ForceK(k int) {
	m.k, m.kTarget = max(k, 1), 0
}

// kSched is the k the schedule is heading for, which admission charges.
func (m *Manager) kSched() int { return max(m.k, m.kTarget) }

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// SetCache installs an interval cache; nil disables caching. Intended
// at manager construction, before requests are admitted. A manager that
// gives its cache up (the file system retiring it: the frames go to the
// next manager) first withdraws every request from it, so nothing it
// does afterwards reads or writes a frame it no longer owns: open
// streams are closed and never reopen — those plays run on from the
// disk — and a cache-served follower, which holds no admission slot, is
// destructively paused, the state a failed demotion leaves; Resume takes
// it through full admission.
func (m *Manager) SetCache(c *cache.Cache) {
	if m.cache != nil {
		for _, r := range m.reqs {
			if r.kind != Play {
				continue
			}
			m.closeCacheStream(r)
			r.play.cacheEligible = false
			if r.cacheServed && !r.done {
				r.cacheServed, r.needsDemote = false, false
				if r.pause == nil {
					r.pause = &pauseState{at: m.clock.Now()}
				}
				r.pause.destructive = true
			}
		}
		m.rt.invalidate()
	}
	m.cache = c
}

// Cache returns the interval cache, nil when disabled.
func (m *Manager) Cache() *cache.Cache { return m.cache }

// ActiveRequests reports how many disk-bound requests admission
// control is currently carrying.
func (m *Manager) ActiveRequests() int {
	_, n := m.residentSets(true)
	return n
}

// CacheServed reports how many live requests are currently served from
// the interval cache instead of the disk.
func (m *Manager) CacheServed() int {
	m.residentSets(m.rt.admission) // either view counts them
	return m.rt.cacheServed
}

// decideAdmit evaluates the admission decision for a candidate without
// side effects and without the stride ladder: continuity.Admit over the
// admission population of every spindle of the candidate's extent
// (Manager.extent; zero, as for a record, means all), requests waiting
// to join included — so an array admits up to p times the
// single-spindle n_max, and a single device is the case p = 1. A
// cacheServed candidate charges no disk time and reads no set.
func (m *Manager) decideAdmit(spindles uint64, candidate continuity.Request, cacheServed bool) continuity.Decision {
	var sets [][]continuity.Request
	if !cacheServed {
		sets = m.touchedSets(spindles)
	}
	return continuity.Admit(m.adm, sets, m.kSched(), candidate, continuity.Premium, 0, cacheServed)
}

// touchedSets is the admission population — requests waiting to join
// included — of the spindles in the mask, or of every spindle when it is 0.
func (m *Manager) touchedSets(spindles uint64) [][]continuity.Request {
	sets, _ := m.residentSets(true)
	if spindles != 0 {
		touched := m.scratchSets[:0]
		for ; spindles != 0; spindles &= spindles - 1 {
			touched = append(touched, sets[bits.TrailingZeros64(spindles)])
		}
		m.scratchSets, sets = touched, touched
	}
	return sets
}

// commit applies a decision decideAdmit reached: the admission counters
// and, for an accepted disk-bound candidate, its k — scheduled, or under
// NaiveJump set at once. A rejection comes back wrapped in
// ErrAdmissionRejected; on acceptance the caller registers the request
// and holds it (hold).
func (m *Manager) commit(dec continuity.Decision) (continuity.Decision, error) {
	m.noteAdmission(dec.Admitted, dec.CacheServed)
	if !dec.Admitted {
		return dec, fmt.Errorf("%w: %s", ErrAdmissionRejected, dec.Reason)
	}
	if dec.CacheServed {
		return dec, nil
	}
	if m.policy == NaiveJump {
		m.k = max(m.k, dec.K)
	} else {
		m.raiseK(dec.K)
	}
	return dec, nil
}

// raiseK schedules k up to at least k: every live play's buffer grant
// grows now to the §3.3.2 provisioning (2k for pipelined retrieval), so
// the read-ahead can absorb the longer rounds, and RunRound steps k
// towards kTarget one unit a round (§3.4).
func (m *Manager) raiseK(k int) {
	if k <= m.k {
		return
	}
	for _, r := range m.reqs {
		if !r.done && r.kind == Play && r.play.plan.Buffers < 2*k {
			r.play.plan.Buffers = 2 * k
			r.wake = 0
		}
	}
	m.kTarget = max(m.kTarget, k)
}

// hold keeps an admitted request out of the sweep until a round opens at
// its decision's K, so the transition rounds run without it (§3.4); one
// the current k covers joins at once. clockWaits: its clock stops while
// it waits (a record, a resumed play; not a demoted follower's display).
// Its callers — admission, Resume, a demotion — have staled the resident
// table already.
func (m *Manager) hold(r *request, dec continuity.Decision, clockWaits bool) {
	r.pendingK = 0
	if dec.CacheServed || dec.K <= m.k {
		return
	}
	r.pendingK, r.pendingAt, r.clockWaits = dec.K, m.clock.Now(), clockWaits
	m.pending++
}

// joinPending admits to the round every waiting request whose K it opens
// at, or all once no step is left to take (ForceK), and recounts the
// rest; a paused one is left to Resume to count.
func (m *Manager) joinPending() {
	n := 0
	for _, r := range m.reqs {
		switch {
		case r.pendingK == 0 || r.done || r.pause != nil:
		case r.pendingK > m.k && m.kTarget > m.k:
			n++
		default:
			r.endWait(m.clock.Now())
			r.pendingK = 0
			m.rt.invalidate()
		}
	}
	m.pending = n
}

// endWait closes the stretch of a wait begun at pendingAt: a request's
// clock starts when it joins, so it moves by the rounds it waited.
func (r *request) endWait(now time.Duration) {
	if r.clockWaits {
		r.shiftClock(now - r.pendingAt)
	}
}

// shiftClock moves a record's capture start or a started play's display
// start d later.
func (r *request) shiftClock(d time.Duration) {
	r.wake = 0
	switch {
	case r.kind == Record:
		r.rec.start += d
	case r.play.started:
		r.play.startTime += d
	}
}

// AdmitPlay admits and registers a PLAY request. It runs no round: the
// request joins the first round that opens at the k it needs. When an
// interval cache is installed and a leading play of the same strand
// range can feed this one, the request is admitted cache-served: it
// charges no disk time, so the total population may exceed Eq. 17's
// n_max.
func (m *Manager) AdmitPlay(plan PlayPlan) (RequestID, continuity.Decision, error) {
	if err := plan.Validate(); err != nil {
		return 0, continuity.Decision{}, err
	}
	c := plan.comp
	if c.groupSec != m.groupSec || c.classes != m.classes {
		return 0, continuity.Decision{}, fmt.Errorf("msm: play plan %q was compiled for stripe groups of %d sectors in %d classes, not this manager's %d in %d",
			plan.Name, c.groupSec, c.classes, m.groupSec, m.classes)
	}
	pm := c.pm
	spindles := m.spindlesAt(pm[0].classes)
	sid, first, end := c.cacheSID, c.cacheFirst, c.cacheEnd
	eligible := c.cacheOK && m.cache != nil
	cacheServed := eligible && m.cache.Adoptable(sid, first, plan.Admission.Rate)
	var dec continuity.Decision
	var err error
	if m.qosEnabled() && !cacheServed {
		// Class-ordered negotiation: full rate, then shedding lower
		// classes, then sub-sampled admission of the candidate itself.
		dec, err = m.admitClassed(spindles, plan.Admission, plan.Class)
	} else {
		dec, err = m.commit(m.decideAdmit(spindles, plan.Admission, cacheServed))
	}
	if err != nil {
		return 0, dec, err
	}
	stride := max(dec.Stride, 1) // 0 unless the negotiation was classed
	ra := plan.ReadAhead
	if ra < 1 {
		ra = 1
	}
	if ra > plan.Buffers {
		ra = plan.Buffers
	}
	if ra > len(plan.Blocks) {
		ra = len(plan.Blocks)
	}
	if m.policy == Stepwise && plan.Buffers < 2*m.kSched() {
		// The request joins a system running at the k the schedule is
		// heading for; provision it for those rounds.
		plan.Buffers = 2 * m.kSched()
	}
	ps := &playState{plan: plan, total: len(plan.Blocks), readAhead: ra, stride: stride, pm: pm}
	if eligible {
		ps.cacheEligible, ps.cacheSID, ps.cacheEnd = true, sid, end
	}
	r := &request{id: m.newID(), kind: Play, name: plan.Name, adm: plan.Admission, play: ps, class: plan.Class}
	m.obs.classAdmitted[r.class].Inc()
	m.obs.effRate.Observe(plan.Admission.Rate / float64(stride))
	if eligible && stride == 1 {
		// Register the play position: disk-bound eligible requests
		// become potential leaders (their fetches feed the cache). A
		// load-shed stream cannot lead — its skipped blocks would
		// starve any follower — so it joins the cache only if promoted
		// back to full rate.
		ps.stream = m.cache.OpenStream(uint64(r.id), sid, first, end, plan.Admission.Rate)
		if dec.CacheServed {
			r.cacheServed = true
			if !ps.stream.Adopt() {
				// Cannot happen: nothing mutates the cache between the
				// Adoptable check and here. Recover through the
				// demotion path rather than crash.
				m.flagDemotion(r)
			}
		}
	}
	m.register(r)
	m.hold(r, dec, true)
	return r.id, dec, nil
}

// AdmitRecord admits and registers a RECORD request, joining as a play
// does. Capture starts when it joins; the first block becomes writable
// one block-duration later.
func (m *Manager) AdmitRecord(plan RecordPlan) (RequestID, continuity.Decision, error) {
	if err := plan.Validate(); err != nil {
		return 0, continuity.Decision{}, err
	}
	dec, err := m.commit(m.decideAdmit(0, plan.Admission, false))
	if err != nil {
		return 0, dec, err
	}
	blockDur := continuity.Duration(float64(plan.UnitsPerBlock) / plan.Source.Rate())
	total := 0
	if plan.TotalUnits > 0 {
		total = int((plan.TotalUnits + uint64(plan.UnitsPerBlock) - 1) / uint64(plan.UnitsPerBlock))
	}
	rs := &recordState{plan: plan, start: m.clock.Now(), blockDur: blockDur, totalBlks: total}
	r := &request{id: m.newID(), kind: Record, name: plan.Name, adm: plan.Admission, rec: rs}
	m.register(r)
	m.hold(r, dec, true)
	return r.id, dec, nil
}

// register enters an admitted request, its state settled, in the live
// table.
func (m *Manager) register(r *request) {
	m.reqs = append(m.reqs, r)
	m.rt.invalidate()
}

// end finishes a request: it leaves the admission set, and a play its
// cache stream — a stopped or finished leader's followers are spliced to
// its own leader, or left to drain the pinned backlog and demote. The
// round's close retires it (finishDrained).
func (m *Manager) end(r *request) {
	r.done = true
	m.finish = true
	m.closeCacheStream(r)
	m.rt.invalidate()
}

func (m *Manager) newID() RequestID {
	id := m.nextID
	m.nextID++
	return id
}

// find returns the request, live or finished, or an error.
func (m *Manager) find(id RequestID) (*request, error) {
	for _, r := range m.reqs {
		if r.id == id {
			return r, nil
		}
	}
	if r, ok := m.retired[id]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("msm: unknown request %d", id)
}

// Stop halts a request (§4.1's STOP): a play request is dropped; a
// record request stops capturing (the caller closes the writer). The
// request leaves the admission set.
func (m *Manager) Stop(id RequestID) error {
	r, err := m.find(id)
	if err != nil {
		return err
	}
	m.end(r)
	return nil
}

// Pause suspends a request (§4.1): destructive pauses release the
// request's admission slot (a later Resume re-runs admission);
// non-destructive pauses keep resources allocated.
func (m *Manager) Pause(id RequestID, destructive bool) error {
	r, err := m.find(id)
	if err != nil {
		return err
	}
	if r.done {
		return fmt.Errorf("msm: pause of finished request %d", id)
	}
	if r.pause != nil {
		return fmt.Errorf("msm: request %d already paused", id)
	}
	if r.pendingK > 0 {
		r.endWait(m.clock.Now()) // the pause holds its clock from here
	}
	r.pause = &pauseState{at: m.clock.Now(), destructive: destructive}
	m.rt.invalidate()
	// A paused producer stops feeding its followers either way; close
	// its cache stream so they demote instead of waiting forever. A
	// paused cache-served request re-enters the cache on resume.
	m.closeCacheStream(r)
	r.needsDemote = false
	return nil
}

// Resume restarts a paused request, shifting its deadlines by the
// pause duration. Resuming a destructively paused request re-runs
// admission control and may be rejected; it rejoins as AdmitPlay's does.
func (m *Manager) Resume(id RequestID) (continuity.Decision, error) {
	r, err := m.find(id)
	if err != nil {
		return continuity.Decision{}, err
	}
	if r.pause == nil {
		return continuity.Decision{}, fmt.Errorf("msm: resume of running request %d", id)
	}
	// A request stopped while destructively paused only leaves its
	// pause: it takes no slot back, and once retired it has no plan to
	// admit.
	readmit := r.pause.destructive && !r.done
	if r.pause.destructive && r.done {
		r.cacheServed = false
	}
	var dec continuity.Decision
	if readmit {
		// A destructively paused request gave up its slot; try to come
		// back as a cache-served follower first, else through full
		// admission.
		cacheServed := false
		if r.kind == Play && m.cache != nil && r.play.cacheEligible && r.play.nextFetch < len(r.play.plan.Blocks) {
			b := r.play.plan.Blocks[r.play.nextFetch]
			cacheServed = m.cache.Adoptable(r.play.cacheSID, b.Index, r.adm.Rate)
		}
		dec, err = m.commit(m.decideAdmit(m.extent(r), r.adm, cacheServed))
		if err != nil {
			return dec, err
		}
		r.cacheServed = dec.CacheServed
	}
	r.shiftClock(m.clock.Now() - r.pause.at)
	if readmit {
		m.hold(r, dec, true)
	} else if r.pendingK > 0 { // paused while it waited: wait on
		r.pendingAt = m.clock.Now()
		m.pending++
	}
	r.pause = nil
	m.rt.invalidate()
	// A resume is an operator-visible fresh start: give the request a
	// clean run at the escalation threshold.
	r.consecFails = 0
	m.reopenCacheStream(r)
	if r.cacheServed && (!r.play.stream.Open() || !r.play.stream.Adopt()) {
		// The adoption the admission was based on is gone; resolve
		// through demotion at the next round.
		m.flagDemotion(r)
	}
	return dec, nil
}

// SetBuffers renegotiates the number of display-device block buffers
// of a play request. The MRS grows buffer grants when admission raises
// k (the §3.3.2 provisioning rule ties buffering to k); shrinking
// below the current occupancy is clamped at the next fetch rather than
// discarding data.
func (m *Manager) SetBuffers(id RequestID, buffers int) error {
	r, err := m.find(id)
	if err != nil {
		return err
	}
	if r.kind != Play {
		return fmt.Errorf("msm: SetBuffers on %v request %d", r.kind, id)
	}
	if buffers < 1 {
		return fmt.Errorf("msm: SetBuffers(%d) on request %d", buffers, id)
	}
	r.play.plan.Buffers = buffers
	r.wake = 0
	return nil
}

// Violations returns the request's recorded continuity violations.
func (m *Manager) Violations(id RequestID) ([]Violation, error) {
	r, err := m.find(id)
	if err != nil {
		return nil, err
	}
	switch r.kind {
	case Play:
		return append([]Violation(nil), r.play.violations...), nil
	default:
		return append([]Violation(nil), r.rec.violations...), nil
	}
}

// Progress summarizes the request's state.
func (m *Manager) Progress(id RequestID) (Progress, error) {
	r, err := m.find(id)
	if err != nil {
		return Progress{}, err
	}
	p := Progress{ID: r.id, Kind: r.kind, Name: r.name, Done: r.done, Paused: r.pause != nil}
	switch r.kind {
	case Play:
		p.Violations = len(r.play.violations)
		p.BlocksServed = r.play.nextFetch
		p.BlocksTotal = r.play.total
		p.StartTime = r.play.startTime
		p.CacheHits = r.play.cacheHits
		p.CacheServed = r.cacheServed
		p.DegradedBlocks = r.play.degraded
		p.ConsecFaults = r.consecFails
		p.Class = r.class
		p.Stride = strideOf(r.play)
		p.ShedBlocks = r.play.shed
		p.EffectiveRate = r.adm.Rate / float64(strideOf(r.play))
	default:
		p.Violations = len(r.rec.violations)
		p.BlocksServed = r.rec.nextWrite
		p.BlocksTotal = r.rec.totalBlks
		p.StartTime = r.rec.start
	}
	return p, nil
}

// active lists requests that can still need service, into scratch
// storage valid until the next call.
func (m *Manager) active() []*request {
	out := m.scratchAct[:0]
	for _, r := range m.reqs {
		if !r.done && r.pause == nil && r.pendingK == 0 {
			out = append(out, r)
		}
	}
	m.scratchAct = out
	return out
}

// RunRound services one round: each active request in turn receives up
// to k blocks of transfer. If no request had work, the clock advances
// to the next time one will. It reports false when no active request
// remains and none waits to join. It alone moves k (ForceK and NaiveJump
// aside), one step a round towards kTarget; a transition round with
// nobody to serve counts no round and advances no clock. Every return
// publishes what the round counted (publish).
//
// rt:hotpath
func (m *Manager) RunRound() bool {
	defer m.publish()
	if m.demoting {
		m.processDemotions()
	}
	m.classPass()
	if m.pending > 0 {
		m.joinPending()
	}
	m.tickFaultRounds()
	if m.kTarget > m.k {
		m.k++
		m.stats.TransitionSteps++
	}
	act := m.active()
	if len(act) == 0 {
		return m.runRepairOnlyRound() || m.pending > 0
	}
	m.stats.Rounds++
	// Re-steer around health changes first: the steer table is frozen
	// for the round (every lane's sub-round reads the same one), and who
	// is resident where follows it. The round charges what it serves.
	m.resteer()
	_, resident := m.residentSets(false)
	m.openRound(m.clock.Now(), m.k, resident, m.rt.cacheServed, len(act))
	worked := m.serviceRound(act)
	if !worked {
		next, ok := m.nextWorkTime()
		if !ok {
			// Requests remain (e.g. display draining) but the disk
			// has nothing left to do for them; finish them.
			m.finishDrained()
			return len(m.active()) > 0 || m.pending > 0
		}
		if next > m.clock.Now() {
			m.stats.IdleTime += next - m.clock.Now()
			m.clock.AdvanceTo(next)
		}
	}
	m.finishDrained()
	return true
}

// RunUntilDone services rounds until no active request remains. Paused
// requests do not hold it open.
func (m *Manager) RunUntilDone() {
	for m.RunRound() {
	}
}

// RunFor services rounds until the virtual clock passes the deadline
// or no active request remains.
func (m *Manager) RunFor(d time.Duration) {
	deadline := m.clock.Now() + d
	for m.clock.Now() < deadline {
		if !m.RunRound() {
			return
		}
	}
}

// finishDrained marks play requests done once fully fetched and record
// requests done once their source is exhausted and flushed, and retires
// every finished request from the live table (survivors keep their
// admission order). It closes every round, the one point no loop over
// the table is in flight, and walks the table only when an event raised
// the finish flag since its last walk.
func (m *Manager) finishDrained() {
	if !m.finish {
		return
	}
	m.finish = false
	n := 0
	for _, r := range m.reqs {
		if !r.done && r.pause == nil {
			switch r.kind {
			case Play:
				if r.play.nextFetch >= len(r.play.plan.Blocks) {
					// A finished leader's remaining pins stay with its
					// follower; the chain is spliced around it.
					m.end(r)
				}
			case Record:
				if r.rec.exhausted {
					m.end(r)
				}
			}
		}
		if r.done {
			r.retire()
			m.retired[r.id] = r
			continue
		}
		m.reqs[n] = r
		n++
	}
	clear(m.reqs[n:])
	m.reqs = m.reqs[:n]
}

// closeCacheStream withdraws the request's play position from the
// interval cache (no-op when it has none). The closed handle stays: it
// reads as an unknown id, which is what a follower that has lost its
// stream must see.
func (m *Manager) closeCacheStream(r *request) {
	if r.kind == Play && r.play.stream.Open() {
		r.play.stream.Close()
	}
}

// reopenCacheStream re-registers an eligible play's position after a
// pause or demotion closed it, making it a potential leader again.
func (m *Manager) reopenCacheStream(r *request) {
	if m.cache == nil || r.kind != Play {
		return
	}
	ps := r.play
	if !ps.cacheEligible || ps.stream.Open() || ps.nextFetch >= len(ps.plan.Blocks) {
		return
	}
	b := ps.plan.Blocks[ps.nextFetch]
	ps.stream = m.cache.OpenStream(uint64(r.id), ps.cacheSID, b.Index, ps.cacheEnd, r.adm.Rate)
}

// flagDemotion marks a cache-served request for processDemotions at the
// top of the next round.
func (m *Manager) flagDemotion(r *request) {
	r.needsDemote = true
	m.demoting = true
}

// processDemotions resolves requests whose interval broke (cache miss
// while cache-served): each one first tries to adopt a new leader, and
// failing that goes back through full disk admission — Eq. 18 with its
// stepwise transition, exactly as a fresh request would. When even that
// fails the request is destructively paused rather than allowed to
// violate the admitted population's continuity. RunRound calls it only
// while a request is flagged (demoting); a flag it leaves — on a finished
// request — is never read again.
func (m *Manager) processDemotions() {
	m.demoting = false
	if m.cache == nil {
		return
	}
	for _, r := range m.reqs {
		if !r.needsDemote || r.done || r.pause != nil {
			continue
		}
		r.needsDemote = false
		m.stats.Demotions++
		// Missing again where the previous demotion left it means the
		// leader adopted then fed it nothing — orphans of one stopped
		// leader sit at the same position and would adopt each other in
		// turn forever. No progress: skip re-adoption.
		stuck := r.demotedAt == r.play.nextFetch+1
		r.demotedAt = r.play.nextFetch + 1
		m.closeCacheStream(r)
		m.reopenCacheStream(r)
		if !stuck && r.play.stream.Open() && r.play.stream.Adopt() {
			continue // found a new leader; still cache-served
		}
		// Full admission as a disk-bound stream.
		dec, err := m.commit(m.decideAdmit(m.extent(r), r.adm, false))
		r.cacheServed = false
		m.rt.invalidate()
		if err != nil {
			m.closeCacheStream(r)
			r.pause = &pauseState{at: m.clock.Now(), destructive: true}
			continue
		}
		m.hold(r, dec, false)
	}
}

// isFault reports whether a read error came from the fault-injection
// layer (retryable or degradable) rather than a broken plan. A dead
// device is degradable but — like a bad sector — never retried; the
// mirror layer re-steers the next round's reads to the twin.
func isFault(err error) bool {
	return errors.Is(err, fault.ErrTransient) || errors.Is(err, fault.ErrBadSector) ||
		errors.Is(err, fault.ErrDeviceDead)
}

// deadline is the display start time of plan block j.
func (ps *playState) deadline(j int) time.Duration {
	return ps.startTime + ps.pm[j].offset
}

// occupancyAt is the number of fetched blocks not yet fully displayed
// at virtual time now.
func (ps *playState) occupancyAt(now time.Duration) int {
	if !ps.started {
		return ps.nextFetch
	}
	return ps.nextFetch - ps.releasedBlocks(now-ps.startTime)
}

// releasedBlocks counts the fetched blocks whose display has completed
// by elapsed: the smallest i with pm[i+1].offset > elapsed, at most
// nextFetch. Blocks are released when their display completes — block i
// at offset pm[i+1].offset. It runs several times per serviced block and
// for every idle play in nextWorkTime, so it walks on from its previous
// answer (ps.released): the blocks before that were released by then
// and, while time only moves forward, still are, so a play's calls cost
// O(1) amortised. When time moved back past the cursor — a resume shifts
// the display start — it falls back to the binary search.
func (ps *playState) releasedBlocks(elapsed time.Duration) int {
	i := ps.released
	if i > 0 && ps.pm[i].offset > elapsed {
		i = ps.searchReleased(elapsed)
	} else {
		for i < ps.nextFetch && ps.pm[i+1].offset <= elapsed {
			i++
		}
	}
	ps.released = i
	return i
}

// searchReleased is releasedBlocks by binary search over the fetched
// blocks.
func (ps *playState) searchReleased(elapsed time.Duration) int {
	lo, hi := 0, ps.nextFetch
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps.pm[mid+1].offset > elapsed {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// nextWorkTime finds the earliest virtual time at which any active
// request will have work; ok is false when none will. It iterates the
// request table directly rather than materializing active().
func (m *Manager) nextWorkTime() (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, r := range m.reqs {
		if r.done || r.pause != nil || r.pendingK > 0 {
			continue
		}
		switch r.kind {
		case Play:
			ps := r.play
			if ps.nextFetch >= len(ps.plan.Blocks) {
				continue
			}
			// A Wait-blocked follower has no work of its own: its
			// leader's next fetch (which advances the clock) or its
			// own demotion will unblock it.
			if r.cacheServed && !cachedCanWork(r) {
				continue
			}
			// Display buffers full until a kept wake: that is the next
			// release.
			if m.clock.Now() < r.wake {
				best, found = noteEarliest(best, found, r.wake)
				continue
			}
			if !ps.started || ps.occupancyAt(m.clock.Now()) < ps.plan.Buffers {
				best, found = noteEarliest(best, found, m.clock.Now())
				continue
			}
			// Next buffer release: the oldest unreleased block
			// finishes display.
			released := ps.releasedBlocks(m.clock.Now() - ps.startTime)
			best, found = noteEarliest(best, found, ps.startTime+ps.pm[released+1].offset)
		case Record:
			rs := r.rec
			if rs.exhausted || (rs.totalBlks > 0 && rs.nextWrite >= rs.totalBlks) {
				continue
			}
			best, found = noteEarliest(best, found, rs.start+time.Duration(rs.nextWrite+1)*rs.blockDur)
		}
	}
	return best, found
}

// noteEarliest folds candidate time t into the running minimum. (A
// plain function, not a closure: nextWorkTime runs every idle round
// and a capturing closure would be a per-call heap allocation.)
func noteEarliest(best time.Duration, found bool, t time.Duration) (time.Duration, bool) {
	if !found || t < best {
		return t, true
	}
	return best, found
}

// cachedCanWork reports whether a cache-served request's next block is
// serviceable now (resident, silent, or a miss that triggers
// demotion) as opposed to waiting on its leader.
func cachedCanWork(r *request) bool {
	ps := r.play
	j := ps.nextFetch
	return int(ps.pm[j].next) != j || ps.stream.Peek(ps.plan.Blocks[j].Index) != cache.Wait
}
