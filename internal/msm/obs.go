package msm

import (
	"fmt"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/obs"
)

// roundObs holds the manager's observability handles plus the
// cumulative snapshot the per-round deltas are computed against. The
// zero value is off: nil handles ignore their updates (package obs) and
// recordRound returns at once.
// Rounds can nest (a demotion's re-admission runs transition rounds
// inside RunRound); delta-since-last-record accounting keeps the trace
// exact under nesting — inner rounds record first, the outer round
// records the remainder — at the cost of trace entries appearing in
// completion order.
type roundObs struct {
	ring *obs.TraceRing

	rounds, blocks, written  *obs.Counter
	diskBusyNs               *obs.Counter
	cacheHits, violations    *obs.Counter
	admAccepted, admRejected *obs.Counter
	admCacheServed           *obs.Counter
	demotions, transitions   *obs.Counter
	retries, degraded        *obs.Counter
	faultStops               *obs.Counter

	kGauge, activeGauge, cacheServedGauge *obs.Gauge
	retrySlackGauge                       *obs.Gauge

	// QoS: per-class admission/promotion/demotion counters, per-class
	// live and degraded stream gauges, the load-shed skip counter, and
	// the effective-rate histogram sampled at every admission,
	// promotion, and demotion.
	classAdmitted  [continuity.NumClasses]*obs.Counter
	promotions     [continuity.NumClasses]*obs.Counter
	classDemotions [continuity.NumClasses]*obs.Counter
	classActive    [continuity.NumClasses]*obs.Gauge
	classDegraded  [continuity.NumClasses]*obs.Gauge
	shedBlocks     *obs.Counter
	effRate        *obs.Histogram

	// Mirror resilience: per-spindle health gauges (values are the
	// disk.SpindleState enum; registered only over a mirrored array),
	// the rebuild progress gauge in permille (gauges are
	// integers), and the copied repair-chunk counter.
	spindleState  []*obs.Gauge
	rebuildRatio  *obs.Gauge
	rebuildBlocks *obs.Counter

	// last* are the cumulative values already attributed to recorded
	// rounds.
	lastBlocks, lastWritten  uint64
	lastHits, lastViol       uint64
	lastRetries, lastDegrade uint64
	lastRebuild              uint64
	lastBusy                 time.Duration
}

// SetObs wires the manager to an observability registry and service-
// round trace ring (either may be shared with previous managers over
// the same disk: counters continue, deltas re-anchor to the current
// cumulative state). ring may be nil to record metrics without a
// trace.
func (m *Manager) SetObs(reg *obs.Registry, ring *obs.TraceRing) {
	m.obs = roundObs{
		ring:             ring,
		rounds:           reg.Counter("mmfs_rounds_total"),
		blocks:           reg.Counter("mmfs_blocks_fetched_total"),
		written:          reg.Counter("mmfs_blocks_written_total"),
		diskBusyNs:       reg.Counter("mmfs_disk_busy_ns_total"),
		cacheHits:        reg.Counter("mmfs_round_cache_hits_total"),
		violations:       reg.Counter("mmfs_violations_total"),
		admAccepted:      reg.Counter("mmfs_admission_accepted_total"),
		admRejected:      reg.Counter("mmfs_admission_rejected_total"),
		admCacheServed:   reg.Counter("mmfs_admission_cache_served_total"),
		demotions:        reg.Counter("mmfs_demotions_total"),
		transitions:      reg.Counter("mmfs_transition_steps_total"),
		retries:          reg.Counter("mmfs_retries_total"),
		degraded:         reg.Counter("mmfs_degraded_blocks_total"),
		faultStops:       reg.Counter("mmfs_fault_stops_total"),
		kGauge:           reg.Gauge("mmfs_k"),
		activeGauge:      reg.Gauge("mmfs_active_requests"),
		cacheServedGauge: reg.Gauge("mmfs_cache_served_requests"),
		retrySlackGauge:  reg.Gauge("mmfs_retry_slack_ns"),
		shedBlocks:       reg.Counter("mmfs_qos_shed_blocks_total"),
		effRate:          reg.Histogram("mmfs_qos_effective_rate_units", qosRateBuckets()),
		rebuildRatio:     reg.Gauge("mmfs_rebuild_done_permille"),
		rebuildBlocks:    reg.Counter("mmfs_rebuild_blocks_total"),
	}
	o := &m.obs
	if m.array != nil && m.array.Mirrored() {
		for i := 0; i < m.array.Spindles(); i++ {
			o.spindleState = append(o.spindleState,
				reg.Gauge(fmt.Sprintf("mmfs_spindle_state{spindle=%q}", fmt.Sprint(i))))
		}
	}
	for c := 0; c < continuity.NumClasses; c++ {
		label := continuity.Class(c).String()
		o.classAdmitted[c] = reg.Counter(fmt.Sprintf("mmfs_qos_admitted_total{class=%q}", label))
		o.promotions[c] = reg.Counter(fmt.Sprintf("mmfs_qos_promotions_total{class=%q}", label))
		o.classDemotions[c] = reg.Counter(fmt.Sprintf("mmfs_qos_demotions_total{class=%q}", label))
		o.classActive[c] = reg.Gauge(fmt.Sprintf("mmfs_qos_streams{class=%q}", label))
		o.classDegraded[c] = reg.Gauge(fmt.Sprintf("mmfs_qos_degraded_streams{class=%q}", label))
	}
	// Anchor the deltas: work done before SetObs is not re-attributed.
	o.lastBlocks, o.lastWritten = m.stats.BlocksFetched, m.stats.BlocksWritten
	o.lastHits, o.lastViol = m.stats.CacheHits, m.stats.Violations
	o.lastRetries, o.lastDegrade = m.stats.Retries, m.stats.DegradedBlocks
	o.lastRebuild = m.stats.RebuildBlocks
	o.lastBusy = m.d.Stats().BusyTime()
	o.kGauge.Set(int64(m.k))
}

// recordRound attributes everything since the previous record to one
// completed service round and appends its trace entry. It is also where
// the interval cache's residency gauges are published, once a round: the
// round's hits and inserts leave them to it.
//
// rt:hotpath
func (m *Manager) recordRound(start time.Duration, kAtStart, active, cacheServed, streamsServed int) {
	if m.cache != nil {
		m.cache.PublishGauges()
	}
	o := &m.obs
	if o.rounds == nil {
		return
	}
	busy := m.d.Stats().BusyTime()
	tr := obs.RoundTrace{
		Round:         m.stats.Rounds,
		Start:         int64(start),
		K:             kAtStart,
		Active:        active,
		CacheServed:   cacheServed,
		StreamsServed: streamsServed,
		BlocksRead:    m.stats.BlocksFetched - o.lastBlocks,
		DiskBusyNs:    int64(busy - o.lastBusy),
		CacheHits:     m.stats.CacheHits - o.lastHits,
		Violations:    m.stats.Violations - o.lastViol,
		Retries:       m.stats.Retries - o.lastRetries,
		Degraded:      m.stats.DegradedBlocks - o.lastDegrade,
		RetrySlackNs:  int64(m.serial.retrySlack),
		RebuildBlocks: m.stats.RebuildBlocks - o.lastRebuild,
	}
	o.rounds.Inc()
	o.blocks.Add(tr.BlocksRead)
	o.written.Add(m.stats.BlocksWritten - o.lastWritten)
	o.diskBusyNs.Add(uint64(tr.DiskBusyNs))
	o.cacheHits.Add(tr.CacheHits)
	o.violations.Add(tr.Violations)
	o.kGauge.Set(int64(m.k))
	o.activeGauge.Set(int64(active))
	o.cacheServedGauge.Set(int64(cacheServed))
	o.retrySlackGauge.Set(int64(m.serial.retrySlack))
	if m.qosEnabled() {
		for c, st := range m.QoSStats() {
			o.classActive[c].Set(int64(st.Active))
			o.classDegraded[c].Set(int64(st.Degraded))
		}
	}
	for i, g := range o.spindleState {
		g.Set(int64(m.array.SpindleState(i)))
	}
	if done, total := m.RepairProgress(); total > 0 {
		o.rebuildRatio.Set(int64(done) * 1000 / int64(total))
	} else {
		o.rebuildRatio.Set(0)
	}
	o.lastBlocks, o.lastWritten = m.stats.BlocksFetched, m.stats.BlocksWritten
	o.lastHits, o.lastViol = m.stats.CacheHits, m.stats.Violations
	o.lastRetries, o.lastDegrade = m.stats.Retries, m.stats.DegradedBlocks
	o.lastRebuild = m.stats.RebuildBlocks
	o.lastBusy = busy
	o.ring.Append(tr)
}

// noteAdmission counts an admission decision.
func (m *Manager) noteAdmission(admitted, cacheServed bool) {
	o := &m.obs
	switch {
	case admitted && cacheServed:
		o.admAccepted.Inc()
		o.admCacheServed.Inc()
	case admitted:
		o.admAccepted.Inc()
	default:
		o.admRejected.Inc()
	}
}
