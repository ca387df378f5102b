package core

import (
	"fmt"
	"slices"
	"time"

	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// PlayHandle names the MSM requests a PLAY spawned: one per medium,
// admitted together and started simultaneously so the block-level
// correspondence keeps the media synchronized.
type PlayHandle struct {
	// VideoReq and AudioReq are the per-medium request IDs (zero
	// when that medium was not requested or is absent).
	VideoReq msm.RequestID
	AudioReq msm.RequestID
}

// Requests lists the non-zero request IDs.
func (h PlayHandle) Requests() []msm.RequestID {
	var out []msm.RequestID
	if h.VideoReq != 0 {
		out = append(out, h.VideoReq)
	}
	if h.AudioReq != 0 {
		out = append(out, h.AudioReq)
	}
	return out
}

// Play implements §4.1's
//
//	PLAY [mmRopeID, interval, media] → requestID
//
// admitting one retrieval request per selected medium over the rope's
// [start, start+dur) range (dur 0 plays to the end). Admission may
// reject the request (ErrAdmissionRejected) without disturbing the
// requests already in service.
func (fs *FS) Play(user string, id rope.ID, m rope.Medium, start, dur time.Duration, opts msm.PlanOptions) (PlayHandle, error) {
	r, err := fs.playable(user, id)
	if err != nil {
		return PlayHandle{}, err
	}
	if dur == 0 {
		dur = r.Length() - start
	}
	hasVideo, hasAudio := r.Components()
	var h PlayHandle
	admit := func(mm rope.Medium) (msm.RequestID, error) {
		plan, err := fs.PlayPlan(r, mm, start, dur, opts)
		if err != nil {
			return 0, err
		}
		req, _, err := fs.mgr.AdmitPlay(plan)
		return req, err
	}
	wantVideo := (m == rope.AudioVisual || m == rope.VideoOnly) && hasVideo
	wantAudio := (m == rope.AudioVisual || m == rope.AudioOnly) && hasAudio
	if !wantVideo && !wantAudio {
		return PlayHandle{}, fmt.Errorf("core: rope %d has no %v component", id, m)
	}
	if wantVideo {
		if h.VideoReq, err = admit(rope.VideoOnly); err != nil {
			return PlayHandle{}, err
		}
	}
	if wantAudio {
		if h.AudioReq, err = admit(rope.AudioOnly); err != nil {
			if h.VideoReq != 0 {
				// All-or-nothing: do not leave a half-admitted AV
				// request consuming service rounds.
				//lint:ignore noerrdrop best-effort rollback; the admission error takes precedence
				_ = fs.mgr.Stop(h.VideoReq)
			}
			return PlayHandle{}, err
		}
	}
	return h, nil
}

// playKey names a rope medium's entry in the repeat-play memo.
type playKey struct {
	rope rope.ID
	m    rope.Medium
}

// playMemo is the plan the last PLAY of a rope medium compiled, beside
// the compiler input it came from: the flattened interval list and the
// options that shape blocks and admission. Strands are immutable, so
// equal input compiles to an equal plan; an edit changes the list.
type playMemo struct {
	ivs  []msm.Interval
	in   planInput
	plan msm.PlayPlan
}

// planInput is the part of msm.PlanOptions the compiled body depends on;
// the rest (ReadAhead, Buffers, Class) is each play's own.
type planInput struct {
	speed, scattering float64
	skip              bool
}

// PlayPlan is one medium of a PLAY's plan: what Play admits, exported so
// that an oracle can hold the memo to a fresh compile. A rope played
// again over the same intervals with the same input reuses the plan its
// last PLAY compiled — blocks, admission, map and cache range — with
// this play's own ReadAhead, Buffers and Class, so an arrival costs the
// flattening of its range and its admission decision, not a walk of its
// blocks. Anything else compiles and replaces the rope medium's entry;
// DeleteRope drops the rope's entries.
func (fs *FS) PlayPlan(r *rope.Rope, m rope.Medium, start, dur time.Duration, opts msm.PlanOptions) (msm.PlayPlan, error) {
	ivs, err := fs.ropes.PlayIntervals(r, m, start, dur)
	if err != nil {
		return msm.PlayPlan{}, err
	}
	key := playKey{r.ID, m}
	in := planInput{speed: opts.Speed, scattering: opts.Scattering, skip: opts.Skip}
	if e, ok := fs.plays[key]; ok && e.in == in && slices.Equal(e.ivs, ivs) {
		return e.plan.WithOptions(opts), nil
	}
	plan, err := msm.PlanPlay(fs.d, rope.PlayName(r.ID, m), ivs, opts)
	if err != nil {
		return msm.PlayPlan{}, err
	}
	fs.plays[key] = playMemo{ivs: ivs, in: in, plan: plan}
	return plan, nil
}

// StopPlay issues STOP on every request of the handle.
func (fs *FS) StopPlay(h PlayHandle) error {
	for _, id := range h.Requests() {
		if err := fs.mgr.Stop(id); err != nil {
			return err
		}
	}
	return nil
}

// PausePlay pauses every request of the handle (§4.1's destructive or
// non-destructive PAUSE).
func (fs *FS) PausePlay(h PlayHandle, destructive bool) error {
	for _, id := range h.Requests() {
		if err := fs.mgr.Pause(id, destructive); err != nil {
			return err
		}
	}
	return nil
}

// ResumePlay resumes every request of the handle; a destructive pause
// re-runs admission and may be rejected.
func (fs *FS) ResumePlay(h PlayHandle) error {
	for _, id := range h.Requests() {
		if _, err := fs.mgr.Resume(id); err != nil {
			return err
		}
	}
	return nil
}

// PlayViolations sums the continuity violations across the handle's
// requests.
func (fs *FS) PlayViolations(h PlayHandle) (int, error) {
	total := 0
	for _, id := range h.Requests() {
		v, err := fs.mgr.Violations(id)
		if err != nil {
			return 0, err
		}
		total += len(v)
	}
	return total, nil
}
