package main

// The per-layer metrics are named layer.metric after the repository's
// packages. Every trace run reports every name BENCHMARK.json lists;
// a metric whose layer the workload never enters reads 0 (wire.* on a
// serve-* workload, cache.* without a cache). The README's interaction
// list says which end-to-end metric each should move.

// spanMeanUs is the mean duration of a span name in µs.
func spanMeanUs(lt map[string]layerTime, name string) float64 {
	l := lt[name]
	return ratio(float64(l.TotalNs)/1e3, float64(l.Spans))
}

// tail is the highest percentile a sample count supports: p99 with
// ≥ 1000 samples, p90 with ≥ 100, otherwise the maximum.
func (d dist) tail() float64 {
	switch {
	case d.HasP99:
		return d.P99
	case d.HasP90:
		return d.P90
	}
	return d.Max
}

// sharedLayers fills the metrics both kinds of workload derive the
// same way: counters from the measured pass (a), spans and disk
// counters from the traced pass (b), unit costs from the microloops.
func sharedLayers(m *measured, a, b *common, lt map[string]layerTime, mc microCosts) {
	rounds := a.counterDelta("mmfs_rounds_total")
	fetched := a.counterDelta("mmfs_blocks_fetched_total")
	hits := a.counterDelta("mmfs_round_cache_hits_total")
	inserts := a.counterDelta("mmfs_cache_inserts_total")

	m.set("core.play_call_us", spanMeanUs(lt, "core.play_call"))
	m.set("core.fetch_us", spanMeanUs(lt, "core.fetch"))
	m.set("rope.compile_play_us", spanMeanUs(lt, "rope.compile_play"))

	m.set("continuity.admit_ns", mc.admitNs)
	m.set("continuity.classaware_admit_ns", mc.classAwareNs)
	m.set("continuity.accepted", a.counterDelta("mmfs_admission_accepted_total"))
	m.set("continuity.rejected", a.counterDelta("mmfs_admission_rejected_total"))
	m.set("continuity.cache_served", a.counterDelta("mmfs_admission_cache_served_total"))

	rl := lt["msm.rounds"]
	roundUs := ratio(float64(rl.TotalNs)/1e3, float64(rl.Calls))
	m.set("msm.admit_play_us", spanMeanUs(lt, "msm.admit_play"))
	m.set("msm.round_us", roundUs)
	// A round minus its block reads and cache operations at their
	// microloop unit costs: what the round loop itself costs.
	ioUs := ((fetched-hits)*mc.strandReadNs + hits*mc.cacheGetNs + inserts*mc.cachePutNs) / 1e3
	m.set("msm.round_self_us", roundUs-ratio(ioUs, rounds))
	m.set("msm.rounds", rounds)
	m.set("msm.blocks_fetched", fetched)
	m.set("msm.blocks_per_round", ratio(fetched, rounds))
	m.set("msm.transition_steps", a.counterDelta("mmfs_transition_steps_total"))
	m.set("msm.k_max", float64(b.kMax))
	m.set("msm.idle_virtual_s", b.idle.Seconds())
	busy := b.diskAfter.BusyTime() - b.diskBefore.BusyTime()
	// Disk-busy share of elapsed virtual time, per spindle.
	m.set("msm.round_util_pct", 100*ratio(busy.Seconds(), b.virtual.Seconds()*float64(max(1, a.w.Disks))))

	m.set("cache.get_ns", mc.cacheGetNs)
	m.set("cache.put_ns", mc.cachePutNs)
	m.set("cache.hits", a.counterDelta("mmfs_cache_hits_total"))
	m.set("cache.misses", a.counterDelta("mmfs_cache_misses_total"))
	m.set("cache.inserts", inserts)
	m.set("cache.evictions", a.counterDelta("mmfs_cache_evictions_total"))
	m.set("cache.adoptions", a.counterDelta("mmfs_cache_adoptions_total"))
	m.set("cache.bytes_peak", float64(a.cacheBytesPeak))

	m.set("strand.read_block_ns", mc.strandReadNs)
	m.set("strand.append_us", mc.strandAppendUs)
	m.set("disk.read_into_ns", mc.diskReadIntoNs)
	m.set("disk.reads", float64(b.diskAfter.Reads-b.diskBefore.Reads))
	m.set("disk.writes", float64(b.diskAfter.Writes-b.diskBefore.Writes))
	m.set("disk.busy_virtual_ms", float64(busy)/1e6)
	seek := b.diskAfter.SeekTime - b.diskBefore.SeekTime
	m.set("disk.seek_share_pct", 100*ratio(float64(seek), float64(busy)))

	m.set("alloc.constrained_ns", mc.allocConstrainedNs)
	m.set("gc.collect_us", mc.gcCollectUs)
	m.set("obs.snapshot_us", mc.obsSnapshotUs)
	m.set("obs.trace_append_ns", mc.obsTraceAppendNs)

	// Process cost of the traced pass, which hosts every layer in this
	// process; peak_rss_mb is overridden with the daemon's on wire-*.
	m.set("proc.peak_rss_mb", peakRSSMB(0))
	m.set("proc.heap_live_mb", float64(b.memAfter.HeapAlloc)/(1<<20))
	m.set("proc.gc_cycles", float64(b.memAfter.NumGC-b.memBefore.NumGC))
	m.set("proc.gc_pause_ms", float64(b.memAfter.PauseTotalNs-b.memBefore.PauseTotalNs)/1e6)
	m.set("proc.mallocs_per_op", ratio(float64(b.memAfter.Mallocs-b.memBefore.Mallocs), float64(b.ops)))
	// Wall per script unit, so a truncated pass still compares.
	perUnit := func(c *common) float64 { return ratio(c.wall.Seconds(), float64(c.units)) }
	m.set("trace.overhead_pct", 100*(ratio(perUnit(b), perUnit(a))-1))
}

// wireLayers derives the per-layer metrics of a wire workload: client
// latencies and the probe from the measured pass against the real
// daemon (a); the decomposition from the traced pass (b), where
// server overhead is a round trip minus the twin's direct call minus
// codec time.
func wireLayers(a, b *wirePass, lt map[string]layerTime, mc microCosts) {
	m := a.m
	sharedLayers(m, &a.common, &b.common, lt, mc)
	m.set("wire.req_codec_ns", mc.codecReqNs)
	m.set("wire.resp_codec_ns", mc.codecRespNs)
	m.set("wire.bytes_per_op", mc.bytesPerOp)

	for k := opKind(0); k < numOpKinds; k++ {
		d := summarise(a.lat[k])
		if k == opStats && a.probe != nil {
			d = summarise(scale(a.probe.ms, 1e3))
		}
		m.Dists["rpc_us."+k.String()] = d
		m.set("client.rpc_p50_us."+k.String(), d.P50)
		m.set("client.rpc_tail_us."+k.String(), d.tail())
	}
	idleMs := summarise(a.idleUs).P50 / 1e3
	if a.probe != nil {
		pd := summarise(a.probe.ms)
		m.Dists["probe_ms"] = pd
		m.set("client.probe_p50_ms", pd.P50)
		m.set("client.probe_tail_ms", pd.tail())
		m.set("client.probe_lag_max_ms", a.probe.lagMaxM)
		m.set("server.hol_wait_ms", pd.P50-idleMs)
	}
	m.set("client.edit_cycle_p50_ms", m.dist("cycle_edit_ms", scale(a.cycleUs, 1e-3)).P50)

	for _, k := range []opKind{opPlay, opFetch, opInfo, opRecord} {
		codecUs := (mc.codec[k].ReqNs + mc.codec[k].RespNs) / 1e3
		rtt := spanMeanUs(lt, "client.rpc."+k.String())
		if rtt > 0 {
			m.set("server.overhead_us."+k.String(), rtt-spanMeanUs(lt, "twin."+k.String())-codecUs)
		}
	}
	// STATS is not in the closed loop; its overhead comes from the
	// traced pass's unloaded round trips, whose twin side is a handful
	// of field reads.
	statsUs := perCall(func() { _ = b.tw.stats() }) / 1e3
	m.set("server.overhead_us.stats", summarise(b.idleUs).P50-statsUs-(mc.codec[opStats].ReqNs+mc.codec[opStats].RespNs)/1e3)
	m.set("server.requests_total", a.counterDelta("mmfs_requests_total"))
	m.set("server.errors_total", a.counterDelta("mmfs_server_errors_total"))

	m.set("core.record_ms", spanMeanUs(lt, "twin.record")/1e3)
	m.set("core.sync_us", spanMeanUs(lt, "core.sync"))
	for _, k := range []opKind{opInsert, opSubstring, opConcate, opDelRange, opDelRope} {
		m.set("core.edit_us."+k.String(), spanMeanUs(lt, "core.edit."+k.String()))
	}
	m.set("core.check_ms", spanMeanUs(lt, "core.check")/1e3)
	m.set("rope.copied_blocks", float64(a.copied))
	m.set("gc.reclaimed_strands", float64(a.reclaimed))
	m.set("alloc.occupancy_pct", 100*b.tw.fs.Occupancy())
	m.set("proc.peak_rss_mb", a.daemonRSSMB)
}

// serveLayers derives the per-layer metrics of a serve-* workload.
func serveLayers(a, b *servePass, lt map[string]layerTime, mc microCosts) {
	m := a.m
	sharedLayers(m, &a.common, &b.common, lt, mc)
	m.set("msm.stop_us", spanMeanUs(lt, "msm.stop"))
	m.set("msm.pause_resume_us", spanMeanUs(lt, "msm.pause")+spanMeanUs(lt, "msm.resume"))
	m.set("msm.startup_p50_vms", m.Dists["startup_vms"].P50)
	m.set("alloc.occupancy_pct", 100*b.fs.Occupancy())
}
