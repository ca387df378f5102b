package msm

import (
	"testing"
	"time"

	"mmfs/internal/fault"
	"mmfs/internal/obs"
)

// inertScenario is active (so the wrapper injects) but never fires on
// its own: the bad range sits far past the disk. Tests drive faults
// deterministically with FailNextReads instead of probability draws.
func inertScenario() fault.Scenario {
	return fault.Scenario{Seed: 1, BadSectors: []fault.SectorRange{{Start: 1 << 40, Count: 1}}}
}

// TestRetryRecoversTransient verifies the first tier of the ladder: a
// transient fault is re-read within the round, charged to the round's
// slack, and the play completes with zero violations and zero degraded
// blocks.
func TestRetryRecoversTransient(t *testing.T) {
	rig := newRig(t, shape{fault: inertScenario()})
	s := rig.record(take{units: 120, seed: 42})
	rig.m = rig.manager(config{k: 4}) // headroom: slack = 4γ − α − 4β is comfortably positive at n=1
	reg := obs.NewRegistry()
	rig.m.SetObs(reg, nil)
	id := rig.play(s, rig.std)
	rig.fd.FailNextReads(1)
	rig.m.RunUntilDone()

	st := rig.m.Stats()
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	if st.DegradedBlocks != 0 || st.FaultStops != 0 {
		t.Fatalf("degraded=%d faultStops=%d, want 0/0", st.DegradedBlocks, st.FaultStops)
	}
	v, err := rig.m.Violations(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("retried play had %d violations, first %+v", len(v), v[0])
	}
	p, _ := rig.m.Progress(id)
	if !p.Done || p.BlocksServed != p.BlocksTotal {
		t.Fatalf("play incomplete after retry: %+v", p)
	}
	if got := reg.Counter("mmfs_retries_total").Value(); got != 1 {
		t.Fatalf("mmfs_retries_total = %d, want 1", got)
	}
	if got := reg.Counter("mmfs_degraded_blocks_total").Value(); got != 0 {
		t.Fatalf("mmfs_degraded_blocks_total = %d, want 0", got)
	}
}

// TestDegradationKeepsStreamAdmitted verifies the second tier: with the
// retry budget at zero, faulted blocks are delivered as zero-fill,
// recorded as Degraded violations, and the stream still plays to
// completion — no abort, no admission churn.
func TestDegradationKeepsStreamAdmitted(t *testing.T) {
	rig := newRig(t, shape{fault: inertScenario()})
	s := rig.record(take{units: 120, seed: 42})
	rig.m = rig.manager(config{})
	rig.m.ft = FaultPolicy{MaxRetries: 0, ConsecFailLimit: 0}
	id := rig.play(s, rig.std)
	rig.fd.FailNextReads(3)
	rig.m.RunUntilDone()

	st := rig.m.Stats()
	if st.DegradedBlocks != 3 {
		t.Fatalf("degraded blocks = %d, want 3", st.DegradedBlocks)
	}
	if st.Retries != 0 || st.FaultStops != 0 {
		t.Fatalf("retries=%d faultStops=%d, want 0/0", st.Retries, st.FaultStops)
	}
	v, err := rig.m.Violations(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3 {
		t.Fatalf("violations = %d, want 3", len(v))
	}
	for _, viol := range v {
		if viol.Cause != CauseDegraded {
			t.Fatalf("violation cause %v, want degraded: %+v", viol.Cause, viol)
		}
	}
	p, _ := rig.m.Progress(id)
	if !p.Done || p.BlocksServed != p.BlocksTotal {
		t.Fatalf("degraded play did not complete: %+v", p)
	}
	if p.DegradedBlocks != 3 {
		t.Fatalf("progress degraded = %d, want 3", p.DegradedBlocks)
	}
}

// TestBadSectorDegradesWithoutRetry verifies persistent defects skip
// the retry tier (re-reading a grown defect cannot succeed) and degrade
// directly, without stopping the play.
func TestBadSectorDegradesWithoutRetry(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 120, seed: 42})
	e, err := s.Block(2)
	if err != nil {
		t.Fatal(err)
	}
	fd := fault.New(rig.d, fault.Scenario{Seed: 1, BadSectors: []fault.SectorRange{{Start: int(e.Sector), Count: 1}}})
	rig.m = rig.manager(config{dev: fd})
	id := rig.play(s, rig.std)
	rig.m.RunUntilDone()

	st := rig.m.Stats()
	if st.Retries != 0 {
		t.Fatalf("bad sector was retried %d times", st.Retries)
	}
	if st.DegradedBlocks != 1 {
		t.Fatalf("degraded blocks = %d, want 1", st.DegradedBlocks)
	}
	v, _ := rig.m.Violations(id)
	if len(v) != 1 || v[0].Cause != CauseDegraded || v[0].Block != 2 {
		t.Fatalf("violations = %+v, want one degraded at block 2", v)
	}
	p, _ := rig.m.Progress(id)
	if !p.Done || p.BlocksServed != p.BlocksTotal {
		t.Fatalf("play over bad sector did not complete: %+v", p)
	}
}

// TestEscalationStopsStream verifies the third tier: a stream whose
// deliveries are all degraded is stopped once ConsecFailLimit
// consecutive failures accumulate, freeing its admission slot.
func TestEscalationStopsStream(t *testing.T) {
	rig := newRig(t, shape{fault: fault.Scenario{Seed: 1, ReadErrorRate: 1}})
	s := rig.record(take{units: 120, seed: 42})
	rig.m = rig.manager(config{})
	rig.m.ft = FaultPolicy{MaxRetries: 0, ConsecFailLimit: 3}
	id := rig.play(s, rig.std)
	rig.m.RunUntilDone()

	st := rig.m.Stats()
	if st.FaultStops != 1 {
		t.Fatalf("fault stops = %d, want 1", st.FaultStops)
	}
	if st.DegradedBlocks != 3 {
		t.Fatalf("degraded blocks = %d, want exactly the escalation threshold 3", st.DegradedBlocks)
	}
	p, _ := rig.m.Progress(id)
	if !p.Done {
		t.Fatalf("escalated stream not marked done: %+v", p)
	}
	if p.BlocksServed >= p.BlocksTotal {
		t.Fatalf("escalated stream claims full service: %+v", p)
	}
}

// TestPauseResumeResetsConsecFails drives the satellite requirement:
// Pause/Resume mid-degradation works, and Resume gives the stream a
// clean run at the escalation threshold (consecutive-failure counter
// resets).
func TestPauseResumeResetsConsecFails(t *testing.T) {
	rig := newRig(t, shape{fault: fault.Scenario{Seed: 1, ReadErrorRate: 1}})
	s := rig.record(take{units: 120, seed: 42})
	rig.m = rig.manager(config{})
	rig.m.ft = FaultPolicy{MaxRetries: 0, ConsecFailLimit: 50}
	id := rig.play(s, rig.std)

	// Degrade a few deliveries, then pause mid-storm.
	for i := 0; i < 20; i++ {
		p, _ := rig.m.Progress(id)
		if p.ConsecFaults >= 2 {
			break
		}
		rig.m.RunRound()
	}
	p, _ := rig.m.Progress(id)
	if p.ConsecFaults < 2 {
		t.Fatalf("storm did not accumulate consecutive faults: %+v", p)
	}
	if err := rig.m.Pause(id, false); err != nil {
		t.Fatalf("pause mid-degradation: %v", err)
	}
	if _, err := rig.m.Resume(id); err != nil {
		t.Fatalf("resume mid-degradation: %v", err)
	}
	p, _ = rig.m.Progress(id)
	if p.ConsecFaults != 0 {
		t.Fatalf("consecutive-failure counter survived Resume: %+v", p)
	}

	// The stream keeps degrading after resume and, with the limit out
	// of reach, still plays out every block.
	rig.m.RunUntilDone()
	st := rig.m.Stats()
	if st.FaultStops != 0 {
		t.Fatalf("unexpected escalation after resume: %d", st.FaultStops)
	}
	p, _ = rig.m.Progress(id)
	if !p.Done || p.BlocksServed != p.BlocksTotal {
		t.Fatalf("resumed stream did not complete: %+v", p)
	}
	if p.DegradedBlocks == 0 {
		t.Fatal("expected degraded deliveries after resume")
	}
}

// TestStopMidDegradation verifies an operator STOP lands cleanly while
// the stream is degrading: the request ends without an escalation stop
// and the manager drains.
func TestStopMidDegradation(t *testing.T) {
	rig := newRig(t, shape{fault: fault.Scenario{Seed: 1, ReadErrorRate: 1}})
	s := rig.record(take{units: 120, seed: 42})
	rig.m = rig.manager(config{})
	rig.m.ft = FaultPolicy{MaxRetries: 0, ConsecFailLimit: 0}
	id := rig.play(s, rig.std)
	for i := 0; i < 5; i++ {
		rig.m.RunRound()
	}
	st := rig.m.Stats()
	if st.DegradedBlocks == 0 {
		t.Fatal("setup: no degradation before stop")
	}
	if err := rig.m.Stop(id); err != nil {
		t.Fatalf("stop mid-degradation: %v", err)
	}
	rig.m.RunUntilDone()
	p, _ := rig.m.Progress(id)
	if !p.Done {
		t.Fatalf("stopped stream not done: %+v", p)
	}
	if got := rig.m.Stats().FaultStops; got != 0 {
		t.Fatalf("operator stop counted as escalation: %d", got)
	}
}

// TestFollowerFallsBackWhenLeaderDegrades verifies the cache
// interaction: a leader's degraded (zero-fill) block is never cached,
// so its follower misses there, demotes, and finishes from the disk —
// clean data, no degraded deliveries of its own, no abort.
func TestFollowerFallsBackWhenLeaderDegrades(t *testing.T) {
	rig := newRig(t, shape{fault: inertScenario()})
	s := rig.record(take{units: 120, seed: 42})
	rig.m = rig.manager(config{cache: 16 << 20})
	rig.m.ft = FaultPolicy{MaxRetries: 0, ConsecFailLimit: 8}

	leader := rig.play(s, rig.std)
	rig.m.RunFor(400 * time.Millisecond)

	follower, dec, err := rig.tryPlay(rig.m, s, rig.std)
	if err != nil {
		t.Fatalf("admit follower: %v", err)
	}
	if !dec.CacheServed {
		t.Fatal("setup: follower was not admitted cache-served")
	}

	rig.fd.FailNextReads(1) // the leader's next disk read degrades
	rig.m.RunUntilDone()

	st := rig.m.Stats()
	if st.DegradedBlocks != 1 {
		t.Fatalf("degraded blocks = %d, want 1 (the leader's)", st.DegradedBlocks)
	}
	if st.Demotions == 0 {
		t.Fatal("follower never demoted despite the hole in the cache feed")
	}
	if st.FaultStops != 0 {
		t.Fatalf("unexpected fault stops: %d", st.FaultStops)
	}
	lp, _ := rig.m.Progress(leader)
	if !lp.Done || lp.BlocksServed != lp.BlocksTotal || lp.DegradedBlocks != 1 {
		t.Fatalf("leader state: %+v", lp)
	}
	fp, _ := rig.m.Progress(follower)
	if !fp.Done || fp.BlocksServed != fp.BlocksTotal {
		t.Fatalf("follower did not complete: %+v", fp)
	}
	if fp.DegradedBlocks != 0 {
		t.Fatalf("follower has degraded deliveries: %+v", fp)
	}
	fv, _ := rig.m.Violations(follower)
	for _, viol := range fv {
		if viol.Cause == CauseDegraded {
			t.Fatalf("follower recorded a degraded violation: %+v", viol)
		}
	}
}
