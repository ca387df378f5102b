package main

import (
	"fmt"
	"time"

	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// The traced pass decomposes a round trip from outside: after each
// RPC the harness applies the same operation to a twin core.FS
// through exported calls, mirroring the server's handler bodies step
// for step (including every Sync, which moves the allocator), with a
// span around each layer call. The twin and the served file system
// are deterministic, so they must end in the same state; the run
// checks that.

// playStats is what a PLAY handler reports back, gathered the same
// way internal/server gathers it.
type playStats struct {
	Violations, Late, Blocks, CacheHits int
	Start                               time.Duration
}

// tracedPlayCall is core.FS.Play with a span around each layer call:
// compile one plan per medium, admit it, roll back video if audio is
// refused. The untraced runs call fs.Play itself; the traced pass
// checks both produce the same model counters.
func tracedPlayCall(fs *core.FS, tr *tracer, user string, id rope.ID, m rope.Medium, start, dur time.Duration, opts msm.PlanOptions) (core.PlayHandle, error) {
	sp := tr.begin("core.play_call")
	defer tr.end(sp)
	r, ok := fs.Ropes().Get(id)
	if !ok {
		return core.PlayHandle{}, fmt.Errorf("unknown rope %d", id)
	}
	if dur == 0 {
		dur = r.Length() - start
	}
	hasVideo, hasAudio := r.Components()
	admit := func(mm rope.Medium) (msm.RequestID, error) {
		c := tr.begin("rope.compile_play")
		plan, err := fs.Ropes().CompilePlay(fs.MediaDevice(), r, mm, start, dur, opts)
		tr.end(c)
		if err != nil {
			return 0, err
		}
		a := tr.begin("msm.admit_play")
		req, _, err := fs.Manager().AdmitPlay(plan)
		tr.end(a)
		return req, err
	}
	var h core.PlayHandle
	var err error
	if (m == rope.AudioVisual || m == rope.VideoOnly) && hasVideo {
		if h.VideoReq, err = admit(rope.VideoOnly); err != nil {
			return core.PlayHandle{}, err
		}
	}
	if (m == rope.AudioVisual || m == rope.AudioOnly) && hasAudio {
		if h.AudioReq, err = admit(rope.AudioOnly); err != nil {
			if h.VideoReq != 0 {
				_ = fs.Manager().Stop(h.VideoReq) // rollback, as core.FS.Play does
			}
			return core.PlayHandle{}, err
		}
	}
	return h, nil
}

// runRounds drives the manager like RunUntilDone (d < 0) or RunFor(d),
// as one msm.rounds span counting the rounds. It returns the rounds
// run and the wall time spent.
func runRounds(mgr *msm.Manager, tr *tracer, d time.Duration) (int, time.Duration) {
	before := mgr.Stats().Rounds
	t0 := time.Now()
	sp := tr.begin("msm.rounds")
	switch {
	case d < 0:
		mgr.RunUntilDone()
	default:
		mgr.RunFor(d)
	}
	n := int(mgr.Stats().Rounds - before)
	tr.endCount(sp, n)
	return n, time.Since(t0)
}

// gatherPlay sums a finished handle's progress the way the server's
// PLAY handler does, additionally splitting out late violations.
func gatherPlay(fs *core.FS, h core.PlayHandle) (playStats, error) {
	var ps playStats
	mgr := fs.Manager()
	for _, req := range h.Requests() {
		vs, err := mgr.Violations(req)
		if err != nil {
			return ps, err
		}
		ps.Violations += len(vs)
		for _, v := range vs {
			if v.Cause == msm.CauseLate {
				ps.Late++
			}
		}
		p, err := mgr.Progress(req)
		if err != nil {
			return ps, err
		}
		ps.Blocks += p.BlocksServed
		ps.CacheHits += p.CacheHits
		if p.StartTime > ps.Start {
			ps.Start = p.StartTime
		}
	}
	return ps, nil
}

// twin is the second file system of a traced wire pass.
type twin struct {
	fs *core.FS
	tr *tracer
	// apply is the wall time spent applying ops to the twin; it is
	// subtracted from the traced pass's wall clock.
	apply time.Duration
	kMax  int
}

// spent is the wall time applied to the twin so far; a nil twin (an
// untraced pass) has spent none.
func (t *twin) spent() time.Duration {
	if t == nil {
		return 0
	}
	return t.apply
}

// op runs one twin operation under a root span named twin.<kind>.
func (t *twin) op(kind opKind, f func() error) error {
	t0 := time.Now()
	sp := t.tr.begin("twin." + kind.String())
	err := f()
	t.tr.end(sp)
	t.apply += time.Since(t0)
	return err
}

func (t *twin) sync() error {
	sp := t.tr.begin("core.sync")
	defer t.tr.end(sp)
	return t.fs.Sync()
}

func (t *twin) record(creator string, c clip, silence bool) (rope.ID, error) {
	var id rope.ID
	err := t.op(opRecord, func() error {
		spec := core.RecordSpec{Creator: creator, Video: c.videoSource(), Audio: c.audioSource(), SilenceElimination: silence}
		sp := t.tr.begin("core.record_call")
		sess, err := t.fs.Record(spec)
		t.tr.end(sp)
		if err != nil {
			return err
		}
		runRounds(t.fs.Manager(), t.tr, -1)
		sp = t.tr.begin("core.record_finish")
		r, err := sess.Finish()
		t.tr.end(sp)
		if err != nil {
			return err
		}
		id = r.ID
		return t.sync()
	})
	return id, err
}

func (t *twin) play(id rope.ID, start, dur time.Duration) (playStats, error) {
	var ps playStats
	err := t.op(opPlay, func() error {
		h, err := tracedPlayCall(t.fs, t.tr, benchUser, id, rope.AudioVisual, start, dur, msm.PlanOptions{ReadAhead: 2, Class: t.fs.Options().QoSDefault})
		if err != nil {
			return err
		}
		t.kMax = max(t.kMax, t.fs.Manager().K())
		runRounds(t.fs.Manager(), t.tr, -1)
		ps, err = gatherPlay(t.fs, h)
		return err
	})
	return ps, err
}

func (t *twin) fetch(id rope.ID, start, dur time.Duration) ([][]byte, error) {
	var units [][]byte
	err := t.op(opFetch, func() error {
		sp := t.tr.begin("core.fetch")
		defer t.tr.end(sp)
		var err error
		units, err = t.fs.FetchUnits(benchUser, id, rope.VideoOnly, start, dur)
		return err
	})
	return units, err
}

// edit wraps one editing call and the Sync the server issues after it.
func (t *twin) edit(kind opKind, f func() (core.EditResult, error)) (int, error) {
	var copied int
	err := t.op(kind, func() error {
		sp := t.tr.begin("core.edit." + kind.String())
		res, err := f()
		t.tr.end(sp)
		if err != nil {
			return err
		}
		copied = res.CopiedBlocks()
		return t.sync()
	})
	return copied, err
}

func (t *twin) insert(base rope.ID, pos time.Duration, with rope.ID, from, dur time.Duration) (int, error) {
	return t.edit(opInsert, func() (core.EditResult, error) {
		return t.fs.Insert(benchUser, base, pos, rope.AudioVisual, with, from, dur)
	})
}

func (t *twin) substring(base rope.ID, start, dur time.Duration) (rope.ID, error) {
	var id rope.ID
	_, err := t.edit(opSubstring, func() (core.EditResult, error) {
		r, res, err := t.fs.Substring(benchUser, base, rope.AudioVisual, start, dur)
		if err == nil {
			id = r.ID
		}
		return res, err
	})
	return id, err
}

func (t *twin) concate(r1, r2 rope.ID) (rope.ID, error) {
	var id rope.ID
	_, err := t.edit(opConcate, func() (core.EditResult, error) {
		r, res, err := t.fs.Concate(benchUser, r1, r2)
		if err == nil {
			id = r.ID
		}
		return res, err
	})
	return id, err
}

func (t *twin) delRange(base rope.ID, start, dur time.Duration) (int, error) {
	return t.edit(opDelRange, func() (core.EditResult, error) {
		return t.fs.DeleteRange(benchUser, base, rope.AudioVisual, start, dur)
	})
}

func (t *twin) delRope(id rope.ID) (int, error) {
	var n int
	_, err := t.edit(opDelRope, func() (core.EditResult, error) {
		reclaimed, err := t.fs.DeleteRope(benchUser, id)
		n = len(reclaimed)
		return core.EditResult{}, err
	})
	return n, err
}

func (t *twin) check() (int, error) {
	var n int
	err := t.op(opCheck, func() error {
		if err := t.sync(); err != nil {
			return err
		}
		sp := t.tr.begin("core.check")
		n = len(t.fs.Check())
		t.tr.end(sp)
		return nil
	})
	return n, err
}

// readOnly applies the twin side of INFO, LISTROPES and METRICS: none
// mutates the file system, so each is just the calls the handler
// makes.
func (t *twin) readOnly(kind opKind, id rope.ID) error {
	return t.op(kind, func() error {
		switch kind {
		case opInfo:
			r, ok := t.fs.Ropes().Get(id)
			if !ok {
				return fmt.Errorf("twin: unknown rope %d", id)
			}
			r.Components()
			_ = r.Length()
		case opListRopes:
			_ = t.fs.Ropes().IDs()
		case opMetrics:
			sp := t.tr.begin("obs.snapshot")
			_ = t.fs.Metrics().Snapshot()
			t.tr.end(sp)
		}
		return nil
	})
}

// stats assembles the fields of STATS the equality check compares.
func (t *twin) stats() client.ServerStats {
	mgr := t.fs.Manager()
	st := mgr.Stats()
	return client.ServerStats{
		Occupancy:      t.fs.Occupancy(),
		Strands:        t.fs.Strands().Len(),
		Ropes:          t.fs.Ropes().Len(),
		Rounds:         st.Rounds,
		K:              mgr.K(),
		ActiveRequests: mgr.ActiveRequests(),
		CacheHits:      st.CacheHits,
	}
}

// sameStats compares the STATS fields both sides can produce.
func sameStats(a, b client.ServerStats) error {
	if a.Occupancy != b.Occupancy || a.Strands != b.Strands || a.Ropes != b.Ropes ||
		a.Rounds != b.Rounds || a.K != b.K || a.ActiveRequests != b.ActiveRequests || a.CacheHits != b.CacheHits {
		return fmt.Errorf("served %+v, twin %+v",
			[]any{a.Occupancy, a.Strands, a.Ropes, a.Rounds, a.K, a.ActiveRequests, a.CacheHits},
			[]any{b.Occupancy, b.Strands, b.Ropes, b.Rounds, b.K, b.ActiveRequests, b.CacheHits})
	}
	return nil
}

const benchUser = "mmload"
