package msm

import (
	"fmt"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/obs"
)

// roundObs holds the manager's observability handles. Stats is the one
// count: event sites touch only Stats, and publish sends the registry and
// the trace what it moved since last. The zero value is off (nil handles;
// publish returns at once). Rounds never nest, so the trace is in round
// order; an entry holds the deltas since the previous one, so what
// happens between rounds (an admission's load-shed violation, a command's
// untimed disk time) lands in the next entry.
type roundObs struct {
	ring *obs.TraceRing

	// last is the Stats the counters show; busy the device's busy total
	// diskBusyNs and the trace show.
	last Stats
	busy time.Duration

	rounds, blocks, written, transitions, cacheHits        *obs.Counter
	demotions, violations, retries, degraded               *obs.Counter
	faultStops, shedBlocks, rebuildBlocks                  *obs.Counter
	diskBusyNs, admAccepted, admRejected, admCacheServed   *obs.Counter
	kGauge, activeGauge, cacheServedGauge, retrySlackGauge *obs.Gauge

	// QoS: per-class admission/promotion/demotion counters, per-class
	// live and degraded stream gauges, and the effective-rate histogram
	// sampled at every admission, promotion, and demotion.
	classAdmitted  [continuity.NumClasses]*obs.Counter
	promotions     [continuity.NumClasses]*obs.Counter
	classDemotions [continuity.NumClasses]*obs.Counter
	classActive    [continuity.NumClasses]*obs.Gauge
	classDegraded  [continuity.NumClasses]*obs.Gauge
	effRate        *obs.Histogram

	// Mirror resilience: per-spindle health gauges (values are the
	// disk.SpindleState enum; registered only over a mirrored array)
	// and the rebuild progress gauge in permille (gauges are integers).
	spindleState []*obs.Gauge
	rebuildRatio *obs.Gauge

	// tr is the trace entry in the making; open, that openRound gave it
	// the header of the round in flight.
	tr   obs.RoundTrace
	open bool
}

// SetObs wires the manager to an observability registry and service-
// round trace ring, either possibly shared with earlier managers over the
// same disk: a counter of a Stats field grows by what the field counts
// from here on. A shared registry's gauges still hold what the previous
// manager published; obs.Gauge.Set stores only a value that differs from
// the registry's, so every gauge the first round sets reads this
// manager's figure. reg may be nil to publish nothing; ring may be nil
// to record metrics without a trace.
func (m *Manager) SetObs(reg *obs.Registry, ring *obs.TraceRing) {
	m.obs = roundObs{
		ring:             ring,
		last:             m.stats, // work done before SetObs is not re-attributed
		busy:             m.d.BusyTime(),
		rounds:           reg.Counter("mmfs_rounds_total"),
		blocks:           reg.Counter("mmfs_blocks_fetched_total"),
		written:          reg.Counter("mmfs_blocks_written_total"),
		transitions:      reg.Counter("mmfs_transition_steps_total"),
		cacheHits:        reg.Counter("mmfs_round_cache_hits_total"),
		demotions:        reg.Counter("mmfs_demotions_total"),
		violations:       reg.Counter("mmfs_violations_total"),
		retries:          reg.Counter("mmfs_retries_total"),
		degraded:         reg.Counter("mmfs_degraded_blocks_total"),
		faultStops:       reg.Counter("mmfs_fault_stops_total"),
		shedBlocks:       reg.Counter("mmfs_qos_shed_blocks_total"),
		rebuildBlocks:    reg.Counter("mmfs_rebuild_blocks_total"),
		diskBusyNs:       reg.Counter("mmfs_disk_busy_ns_total"),
		admAccepted:      reg.Counter("mmfs_admission_accepted_total"),
		admRejected:      reg.Counter("mmfs_admission_rejected_total"),
		admCacheServed:   reg.Counter("mmfs_admission_cache_served_total"),
		kGauge:           reg.Gauge("mmfs_k"),
		activeGauge:      reg.Gauge("mmfs_active_requests"),
		cacheServedGauge: reg.Gauge("mmfs_cache_served_requests"),
		retrySlackGauge:  reg.Gauge("mmfs_retry_slack_ns"),
		effRate:          reg.Histogram("mmfs_qos_effective_rate_units", qosRateBuckets()),
		rebuildRatio:     reg.Gauge("mmfs_rebuild_done_permille"),
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
	o.kGauge.Set(int64(m.k))
}

// openRound marks the round in flight as recorded: the publication that
// ends RunRound closes its trace entry. The header is the round's
// opening state.
//
// rt:hotpath
func (m *Manager) openRound(start time.Duration, k, active, cacheServed, streamsServed int) {
	tr := &m.obs.tr
	tr.Start, tr.K, tr.Active, tr.CacheServed, tr.StreamsServed = int64(start), k, active, cacheServed, streamsServed
	m.obs.open = true
}

// publish sends the registry and the trace what Stats counted since the
// previous publication: one delta a field moves its counter and, for the
// trace's columns, the entry in the making; a round openRound opened is
// closed here, with the busy time and the gauges. Every RunRound return
// publishes (a k step or a demotion counts with nobody served), as does
// an admission; the interval cache's publication rides along.
//
// rt:hotpath
func (m *Manager) publish() {
	if m.cache != nil {
		m.cache.PublishGauges()
	}
	o := &m.obs
	if o.rounds == nil {
		return
	}
	s, l, tr := &m.stats, &o.last, &o.tr
	o.rounds.Add(s.Rounds - l.Rounds)
	o.written.Add(s.BlocksWritten - l.BlocksWritten)
	o.transitions.Add(s.TransitionSteps - l.TransitionSteps)
	o.demotions.Add(s.Demotions - l.Demotions)
	o.faultStops.Add(s.FaultStops - l.FaultStops)
	o.shedBlocks.Add(s.ShedBlocks - l.ShedBlocks)
	d := s.BlocksFetched - l.BlocksFetched
	o.blocks.Add(d)
	tr.BlocksRead += d
	d = s.CacheHits - l.CacheHits
	o.cacheHits.Add(d)
	tr.CacheHits += d
	d = s.Violations - l.Violations
	o.violations.Add(d)
	tr.Violations += d
	d = s.Retries - l.Retries
	o.retries.Add(d)
	tr.Retries += d
	d = s.DegradedBlocks - l.DegradedBlocks
	o.degraded.Add(d)
	tr.Degraded += d
	d = s.RebuildBlocks - l.RebuildBlocks
	o.rebuildBlocks.Add(d)
	tr.RebuildBlocks += d
	*l = *s
	if !o.open {
		return
	}
	o.open = false
	busy := m.d.BusyTime()
	tr.Round, tr.DiskBusyNs, tr.RetrySlackNs = m.stats.Rounds, int64(busy-o.busy), int64(m.serial.retrySlack)
	o.busy = busy
	o.diskBusyNs.Add(uint64(tr.DiskBusyNs))
	o.kGauge.Set(int64(m.k))
	o.activeGauge.Set(int64(tr.Active))
	o.cacheServedGauge.Set(int64(tr.CacheServed))
	o.retrySlackGauge.Set(tr.RetrySlackNs)
	if m.qosEnabled() {
		for c, st := range m.QoSStats() {
			o.classActive[c].Set(int64(st.Active))
			o.classDegraded[c].Set(int64(st.Degraded))
		}
	}
	for i, g := range o.spindleState {
		g.Set(int64(m.array.SpindleState(i)))
	}
	done, total := m.RepairProgress() // 0, 0 with no rebuild running
	o.rebuildRatio.Set(int64(done) * 1000 / max(int64(total), 1))
	o.ring.Append(*tr)
	*tr = obs.RoundTrace{}
}

// noteAdmission counts an admission decision and publishes what it put
// in Stats (a load-shed victim's violation, noteDemotion).
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
	m.publish()
}
