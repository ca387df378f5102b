// Package simtest is the file system's one seeded walk and its oracles.
// A walk formats a shape (the core.Options of a walkShape), records a
// catalogue, draws steps from one vocabulary and asks every oracle after
// each; the seeded tests and FuzzWalk run walkEntry values, so a new
// scenario is a new entry, step or oracle, not a new walk. Check, the
// oracles that read a file system without moving it, is the package's
// one export: the experiments ask it at the end of every trial.
package simtest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"time"

	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

type walkShape core.Options

func (s walkShape) String() string {
	on := func(b bool, suffix string) string { return map[bool]string{true: suffix}[b] }
	return fmt.Sprintf("disks%d-cache%dMiB%s%s%s", max(s.Disks, 1), s.CacheMB, on(s.Mirror, "-mirror"), on(s.Stripe == 1, "-stripe1"), on(s.QoSMaxStride > 0, "-qos4"))
}

// step is a word of the vocabulary. Those from stepRecord on write or
// free sectors or metadata, and those from stepDelete on let the running
// plays finish first: a play that outlives its strand reads freed
// sectors, the hazard ROADMAP item 3 is to close, not the subject here.
type step uint8

const (
	stepArrive     step = iota // a PLAY, under load after a Poisson gap; perhaps a follower behind it
	stepStop                   // STOP a play
	stepPause                  // PAUSE a play, destructively or not
	stepResume                 // RESUME a paused play
	stepRounds                 // one to six service rounds
	stepNewManager             // a fresh storage manager over the same store
	stepKill                   // an operator marks a mirrored spindle dead
	stepRecord                 // RECORD a CBR, VBR or heterogeneous clip
	stepEdit                   // §4.1's INSERT, REPLACE, SUBSTRING, CONCATE or DELETE of a range
	stepText                   // write or truncate a text file
	stepTrigger                // add a trigger and list them
	stepRebuild                // replace a dead spindle and rebuild it online
	stepDelete                 // DELETE a rope, collecting its strands
	stepReorganize             // ReorganizeStrand
	stepCompact                // Compact
	stepRemount                // Sync, Open the device again, play a sample alone
	numSteps
)

var stepNames = [numSteps]string{"arrive", "stop", "pause", "resume", "rounds", "new manager", "kill a spindle",
	"record", "edit", "text", "trigger", "replace + rebuild", "delete + collect", "reorganize", "compact", "sync + remount"}

// walkMix weighs the steps an entry draws.
type walkMix [numSteps]int

// pick draws a step. A mix of one step draws nothing, so an arrivals-only
// walk spends its seed on the arrival process.
func (m walkMix) pick(rng *rand.Rand) step {
	total := 0
	for _, n := range m {
		total += n
	}
	if i := slices.Index(m[:], total); i >= 0 {
		return step(i)
	}
	s, x := step(0), rng.Intn(total)
	for ; x >= m[s]; s++ {
		x -= m[s]
	}
	return s
}

// walkLoad is what an arrival asks for.
type walkLoad struct {
	lambda    float64       // Poisson arrivals a second, ropes by Zipf popularity; 0: at once, any rope
	window    time.Duration // an epoch ends when its arrivals pass it; 0: after its steps
	stopShare float64       // share of arrivals stopped 1–8 s after they arrive
	avShare   float64       // share of plays that are audio-visual
	follow    float64       // share of plays trailed by a follower 1–4 rounds behind
	varied    bool          // plays draw a medium, a range and per-play options
}

// clip is a catalogue rope: seconds of a kind, or the CONCATE of the
// catalogue's first two ropes.
type clip struct{ kind, seconds int }

const (
	clipAudio  = iota // CBR audio with its silences eliminated: silence holders in its strand
	clipAV            // the same with CBR video
	clipVBR           // VBR video
	clipHetero        // heterogeneous audio and video
	clipCBR           // CBR video
	clipConcat        // the CONCATE of the first two ropes
)

type walkEntry struct {
	shape     walkShape
	seed      int64
	mix       walkMix
	load      walkLoad
	clips     []clip      // the catalogue, clip i recorded with seed i,
	records   int         // and record steps
	device    disk.Device // mounted with the shape's options instead of a format; its ropes join the catalogue
	epochs    int         // each on a fresh manager when the load has a window, drained at its end; 0 means 1
	steps     int         // an epoch's steps when the load has no window
	lastMount bool        // Sync and remount at the end, playing every rope alone
	lateKnown bool        // lateness is a known residual on the shape (walkFindings): not judged
	// mut, asked after every step, takes one protection away, to show
	// that an oracle notices.
	mut func(w *walk, s step)
}

// walkTally is what a walk did, for the entries' coverage floors.
type walkTally struct {
	admitted, blocks, smoothed, deleted, reused, rebuilt, remounts, samples int
}

const walkUser = "venkat"

var (
	// A video server's load (Viennot et al.): Poisson arrivals at λ = 4/s,
	// about twice what four spindles admit, over forty ten-second clips by
	// Zipf popularity, 30 s an epoch.
	serverMix   = walkMix{stepArrive: 1}
	serverLoad  = walkLoad{lambda: 4, window: 30 * time.Second}
	serverClips = func() (c []clip) {
		for range 40 {
			c = append(c, clip{clipCBR, 10})
		}
		return c
	}()
	// Everything that reads into, empties or could invalidate the cache.
	platterMix  = walkMix{stepArrive: 25, stepRounds: 35, stepRecord: 6, stepDelete: 6, stepReorganize: 6, stepCompact: 3, stepNewManager: 4, stepKill: 4, stepRebuild: 5}
	platterLoad = walkLoad{avShare: 1.0 / 3, follow: 1}
	// The metadata's steps, with a remount about every eighth.
	lifecycleMix = walkMix{stepRecord: 4, stepEdit: 16, stepText: 4, stepTrigger: 4, stepDelete: 4, stepReorganize: 4, stepCompact: 1, stepRemount: 5}
	// Varied plays of edited ropes: the compiled-plan memo's.
	memoMix = walkMix{stepArrive: 13, stepStop: 9, stepRounds: 4, stepEdit: 5, stepReorganize: 1, stepDelete: 1}
)

type walkPlay struct {
	h               core.PlayHandle
	a               playArgs
	paused, stopped bool
	stopAt          time.Duration // a scheduled STOP, or 0
}

type playArgs struct {
	rope       rope.ID
	m          rope.Medium
	start, dur time.Duration
	opts       msm.PlanOptions
}

type walk struct {
	walkEntry
	fs      *core.FS
	rng     *rand.Rand
	zipf    *rand.Zipf
	ropes   []rope.ID
	plays   []walkPlay    // the current manager's
	at      time.Duration // the current manager's arrival clock
	faulted bool          // a fault is injected or a spindle was killed: lateness is not judged
	tally   walkTally

	// What the oracles read of the step, the ropes, the manager's rounds
	// and the last remount.
	wrote         bool
	touched       []rope.ID
	played        core.PlayHandle
	last, checked map[rope.ID]playArgs
	k             int
	now           time.Duration
	violations    uint64
	kErr, tmErr   error
	mounted       map[rope.ID]string
}

// runWalk formats (or mounts) the entry's shape, records its catalogue
// and walks it: its epochs of drawn steps or, given steps (FuzzWalk's
// decoded input), those.
func runWalk(e walkEntry, steps []step) (*walk, error) {
	w := &walk{walkEntry: e, rng: rand.New(rand.NewSource(e.seed)), faulted: e.shape.Fault.Active(),
		last: map[rope.ID]playArgs{}, checked: map[rope.ID]playArgs{}}
	where := "the catalogue"
	if err := w.run(steps, &where); err != nil {
		return w, fmt.Errorf("seed %d, %s: %w", e.seed, where, err)
	}
	return w, nil
}

func (w *walk) run(steps []step, where *string) (err error) {
	if w.device != nil {
		w.fs, err = core.Open(w.device, core.Options(w.shape))
	} else {
		w.fs, err = core.Format(core.Options(w.shape))
	}
	if err != nil {
		return err
	}
	w.anchor()
	w.ropes = w.fs.Ropes().IDs()
	slices.Sort(w.ropes)
	if err := w.catalogue(); err != nil {
		return err
	}
	if w.load.lambda > 0 {
		w.zipf = rand.NewZipf(w.rng, 1.1, 1, uint64(len(w.ropes)-1))
	}
	w.wrote = w.device == nil
	if err := w.ask(); err != nil {
		return err
	}
	for ep, n := 0, 0; ep < max(w.epochs, 1); ep++ {
		if w.load.window > 0 {
			w.newManager()
		}
		for i := 0; steps == nil && (w.load.window > 0 || i < w.steps) || i < len(steps); i, n = i+1, n+1 {
			var s step
			if steps != nil {
				s = steps[i]
			} else {
				s = w.mix.pick(w.rng)
			}
			*where = fmt.Sprintf("epoch %d, step %d (%s)", ep, n, stepNames[s])
			w.settle()
			w.wrote, w.touched, w.played = s >= stepRecord, w.touched[:0], core.PlayHandle{}
			if s >= stepDelete {
				w.drain()
			}
			if more, err := w.step(s); err != nil {
				return err
			} else if !more {
				break
			}
			if w.mut != nil {
				w.mut(w, s)
			}
			if err := w.ask(); err != nil {
				return err
			}
		}
		*where = fmt.Sprintf("epoch %d, draining", ep)
		w.drain()
		if err := w.ask(); err != nil {
			return err
		}
	}
	if *where = "the last remount"; w.lastMount {
		if err := w.remount(true); err != nil {
			return err
		}
		if err := w.ask(); err != nil {
			return err
		}
	}
	w.retire()
	return nil
}

// clipVideo is media.VideoSource's video — 18 000-byte frames at 30 a
// second, stamped with their numbers — but one frame's PRNG bytes under
// every stamp: the walk judges only that blocks are distinct and where
// they go, and a byte-at-a-time PRNG per frame costs more than the walk.
func clipVideo(frames int, seed int64) media.Source {
	body, units := media.FramePayload(seed, 0, 18000), make([]media.Unit, frames)
	for i := range units {
		units[i] = media.Unit{Seq: uint64(i), Payload: bytes.Clone(body)}
		binary.LittleEndian.PutUint64(units[i].Payload, uint64(i))
	}
	return media.NewSliceSource(units, 30, 18000)
}

func (w *walk) catalogue() error {
	for i, c := range w.clips {
		if c.kind != clipConcat {
			if err := w.record(c.kind, c.seconds, int64(i)); err != nil {
				return err
			}
		} else if r, _, err := w.fs.Concate(walkUser, w.ropes[0], w.ropes[1]); err != nil {
			return err
		} else {
			w.ropes = append(w.ropes, r.ID)
		}
	}
	for i := 0; i < w.records; i++ {
		if _, err := w.step(stepRecord); err != nil {
			return err
		}
	}
	return nil
}

// step takes a step; more is false once the epoch's window has closed.
func (w *walk) step(s step) (more bool, err error) {
	m, arr := w.fs.Manager(), w.fs.Array()
	mirrored := arr != nil && arr.Mirrored() && !arr.RepairActive()
	switch s {
	case stepArrive:
		return w.arrive()
	case stepStop, stepPause, stepResume:
		err = w.control(s)
	case stepRounds:
		for i := w.rng.Intn(6); i >= 0 && w.round(); i-- {
		}
	case stepNewManager:
		w.newManager()
	case stepKill:
		if !mirrored {
			break
		}
		// Never the pair of a spindle the scenario kills: a pair that loses
		// both twins has lost its data, cache or no cache.
		v := w.rng.Intn(arr.Spindles())
		if (w.shape.Fault.DieRound == 0 || v/2 != w.shape.FaultSpindle/2) && arr.SpindleState(arr.Twin(v)) == disk.Healthy {
			arr.SetSpindleState(v, disk.Dead)
			w.faulted = true
		}
	case stepRecord:
		seconds, seed := 1+w.rng.Intn(3), w.rng.Int63()
		err = w.record(w.rng.Intn(4), seconds, seed)
	case stepEdit:
		err = w.edit()
	case stepText:
		name, data := fmt.Sprintf("note-%d", w.rng.Intn(4)), make([]byte, w.rng.Intn(8192))
		if names := w.fs.Text().List(); w.rng.Intn(3) == 0 && len(names) > 0 {
			name, data = names[w.rng.Intn(len(names))], nil
		}
		w.rng.Read(data)
		err = w.fs.Text().Write(name, data)
	case stepTrigger:
		if r := w.rope(); r.Length() > time.Second {
			if err = w.fs.AddTrigger(walkUser, r.ID, time.Duration(w.rng.Int63n(int64(r.Length()))), "mark"); err == nil {
				_, err = w.fs.Triggers(walkUser, r.ID)
			}
		}
	case stepRebuild:
		for v := 0; mirrored && v < arr.Spindles(); v++ {
			if arr.SpindleState(v) == disk.Dead {
				w.tally.rebuilt++
				return true, m.Rebuild(v)
			}
		}
	case stepDelete:
		if i := w.rng.Intn(len(w.ropes)); len(w.ropes) > 2 {
			_, err = w.fs.DeleteRope(walkUser, w.ropes[i])
			w.ropes = slices.Delete(w.ropes, i, i+1)
			w.tally.deleted++
		}
	case stepReorganize:
		if r := w.rope(); len(r.Strands()) > 0 {
			w.edited(r.ID)
			_, err = w.fs.ReorganizeStrand(r.Strands()[w.rng.Intn(len(r.Strands()))], w.rng.Intn(w.fs.Allocator().Geometry().Cylinders))
		}
	case stepCompact:
		_, err = w.fs.Compact()
	case stepRemount:
		err = w.remount(false)
	}
	return true, err
}

// settle is the operator's half of a health change: steering follows
// health before anything touches the array outside a round.
func (w *walk) settle() {
	if arr := w.fs.Array(); arr != nil && arr.Mirrored() {
		arr.RefreshSteering()
	}
}

func (w *walk) rope() *rope.Rope {
	r, _ := w.fs.Ropes().Get(w.ropes[w.rng.Intn(len(w.ropes))])
	return r
}

// round runs a service round, noting a k step over one or a clock going back.
func (w *walk) round() bool {
	m := w.fs.Manager()
	more := m.RunRound()
	if k := m.K(); (k > w.k+1 || k < w.k-1) && w.kErr == nil {
		w.kErr = fmt.Errorf("k moved from %d to %d in one round", w.k, k)
	}
	if now := m.Now(); now < w.now && w.tmErr == nil {
		w.tmErr = fmt.Errorf("the clock went back from %v to %v", w.now, now)
	}
	w.wrote = w.wrote || m.RepairActive()
	w.k, w.now = m.K(), m.Now()
	return more
}

// advance runs rounds up to at as Manager.RunFor does, firing the due STOPs.
func (w *walk) advance(at time.Duration) {
	for {
		next := -1
		for i, p := range w.plays {
			if p.stopAt > 0 && !p.stopped && p.stopAt <= at && (next < 0 || p.stopAt < w.plays[next].stopAt) {
				next = i
			}
		}
		to := at
		if next >= 0 {
			to = w.plays[next].stopAt
		}
		for w.fs.Manager().Now() < to && w.round() {
		}
		if next < 0 {
			return
		}
		w.stop(next)
	}
}

// drain stops the paused plays and runs until nothing is left.
func (w *walk) drain() {
	for i, p := range w.plays {
		if p.paused {
			w.stop(i)
		}
	}
	w.advance(1 << 62)
	for w.round() {
	}
}

// live: play i is not stopped, and no medium finished (a PAUSE would fail).
func (w *walk) live(i int) bool {
	for _, id := range w.plays[i].h.Requests() {
		if pr, err := w.fs.Manager().Progress(id); err != nil || pr.Done {
			return false
		}
	}
	return !w.plays[i].stopped
}

func (w *walk) stop(i int) {
	if w.live(i) {
		if err := w.fs.StopPlay(w.plays[i].h); err != nil {
			panic(err)
		}
	}
	w.plays[i].stopped = true
}

// anchor re-anchors the oracles to the current manager.
func (w *walk) anchor() {
	m := w.fs.Manager()
	w.k, w.now, w.violations = m.K(), m.Now(), m.Stats().Violations
}

// retire tallies the blocks the manager served the walk's plays.
func (w *walk) retire() {
	for _, p := range w.plays {
		for _, id := range p.h.Requests() {
			if pr, err := w.fs.Manager().Progress(id); err == nil {
				w.tally.blocks += pr.BlocksServed
			}
		}
	}
	w.plays, w.at = w.plays[:0], 0
}

func (w *walk) newManager() {
	w.retire()
	w.fs.NewManager()
	w.anchor()
}

// arrive issues a PLAY: under Poisson load after its gap, of a rope by
// Zipf popularity, perhaps with a STOP scheduled 1–8 s on; otherwise at
// once, of any rope. A follower may trail it by 1–4 rounds.
func (w *walk) arrive() (bool, error) {
	l := w.load
	var id rope.ID
	if l.lambda > 0 {
		w.at += time.Duration(w.rng.ExpFloat64() / l.lambda * float64(time.Second))
		if l.window > 0 && w.at >= l.window {
			return false, nil
		}
		w.advance(w.at)
		id = w.ropes[int(w.zipf.Uint64())%len(w.ropes)]
	} else {
		id = w.ropes[w.rng.Intn(len(w.ropes))]
	}
	a := w.args(id)
	follow := l.follow > 0 && w.rng.Float64() < l.follow
	var stopAt time.Duration
	if l.lambda > 0 && w.rng.Float64() < l.stopShare {
		stopAt = w.at + time.Duration((1+7*w.rng.Float64())*float64(time.Second))
	}
	if err := w.play(a, stopAt); err != nil || !follow {
		return true, err
	}
	for i := w.rng.Intn(4); i >= 0; i-- {
		w.round()
	}
	return true, w.play(a, 0)
}

// args draws a PLAY of the rope: its video (audio where it has none, or
// both at the load's share) from start to end at a read-ahead of k; or
// under a varied load any medium, range and per-play options.
func (w *walk) args(id rope.ID) playArgs {
	r, _ := w.fs.Ropes().Get(id)
	a := playArgs{rope: id, m: rope.VideoOnly, opts: msm.PlanOptions{ReadAhead: max(2, w.fs.Manager().K())}}
	if hasV, _ := r.Components(); !hasV {
		a.m = rope.AudioOnly
	}
	if w.load.avShare > 0 && w.rng.Float64() < w.load.avShare {
		a.m = rope.AudioVisual
	}
	if !w.load.varied {
		return a
	}
	a.m = rope.Medium(w.rng.Intn(3))
	switch n := r.Length(); w.rng.Intn(4) {
	case 2:
		a.start = n / 3
	case 3:
		a.start, a.dur = n/4, n/2
	}
	a.opts = msm.PlanOptions{
		Speed:      []float64{0, 1, 2, 0.5, 3}[w.rng.Intn(5)],
		Skip:       w.rng.Intn(2) == 0,
		Scattering: []float64{0, w.fs.TargetScattering()}[w.rng.Intn(2)],
		ReadAhead:  w.rng.Intn(4),
		Buffers:    []int{0, 8}[w.rng.Intn(2)],
		Class:      continuity.Class(w.rng.Intn(3)),
	}
	return a
}

// play issues the PLAY. A refusal is an outcome, and so is a medium or
// range the rope cannot compile.
func (w *walk) play(a playArgs, stopAt time.Duration) error {
	w.last[a.rope] = a
	w.touched = append(w.touched, a.rope)
	h, err := w.fs.Play(walkUser, a.rope, a.m, a.start, a.dur, a.opts)
	if err != nil {
		r, _ := w.fs.Ropes().Get(a.rope)
		ms := w.media(a)
		if errors.Is(err, msm.ErrAdmissionRejected) || len(ms) == 0 || slices.ContainsFunc(ms, func(m rope.Medium) bool {
			_, err := w.fs.Ropes().CompilePlay(w.fs.Disk(), r, m, a.start, a.dur, a.opts)
			return err != nil
		}) {
			return nil
		}
		return err
	}
	w.tally.admitted++
	w.plays = append(w.plays, walkPlay{h: h, a: a, stopAt: stopAt})
	w.played = h
	return nil
}

// media lists the rope's media a PLAY with a.m reads.
func (w *walk) media(a playArgs) []rope.Medium {
	r, _ := w.fs.Ropes().Get(a.rope)
	hasV, hasA := r.Components()
	var out []rope.Medium
	if a.m != rope.AudioOnly && hasV {
		out = append(out, rope.VideoOnly)
	}
	if a.m != rope.VideoOnly && hasA {
		out = append(out, rope.AudioOnly)
	}
	return out
}

// control issues STOP, PAUSE or RESUME to a play that can take it; a
// RESUME admission refuses is an outcome.
func (w *walk) control(s step) error {
	var can []int
	for i, p := range w.plays {
		if s == stepResume && p.paused && !p.stopped || s != stepResume && !p.paused && w.live(i) {
			can = append(can, i)
		}
	}
	if len(can) == 0 {
		return nil
	}
	i := can[w.rng.Intn(len(can))]
	p := &w.plays[i]
	switch s {
	case stepStop:
		w.stop(i)
	case stepPause:
		p.paused = true
		return w.fs.PausePlay(p.h, w.rng.Intn(2) == 0)
	case stepResume:
		if err := w.fs.ResumePlay(p.h); !errors.Is(err, msm.ErrAdmissionRejected) {
			p.paused = false
			return err
		}
	}
	return nil
}

// record records a clip of the kind, unless admission refuses it.
func (w *walk) record(kind, seconds int, seed int64) error {
	spec := core.RecordSpec{Creator: walkUser, Video: clipVideo(30*seconds, seed)}
	switch kind {
	case clipAudio:
		spec.Video = nil
		fallthrough
	case clipAV:
		spec.Audio = media.NewAudioSource(10*seconds, 800, 10, 0.3, 4, seed+1)
		spec.SilenceElimination = true
	case clipVBR:
		spec.Video = media.NewVBRVideoSource(30*seconds, 18000, 6000, 10, 30, seed)
	case clipHetero:
		spec.Audio = media.NewAudioSource(15*seconds, 800, 15, 0, 1, seed+1)
		spec.Heterogeneous = true
	}
	sess, err := w.fs.Record(spec)
	if errors.Is(err, msm.ErrAdmissionRejected) {
		return nil
	} else if err != nil {
		return err
	}
	w.drain()
	r, err := sess.Finish()
	if err != nil {
		return err
	}
	w.ropes = append(w.ropes, r.ID)
	return nil
}

// edit applies one of §4.1's edits. CONCATE stops at 20 s, so that plays
// stay short.
func (w *walk) edit() error {
	r, with := w.rope(), w.rope()
	span := func() (time.Duration, time.Duration) {
		start := time.Duration(w.rng.Int63n(int64(r.Length()/2) + 1))
		return start, time.Duration(w.rng.Int63n(int64(r.Length()-start))) + 1
	}
	var res core.EditResult
	var fresh *rope.Rope
	var err error
	switch w.rng.Intn(5) {
	case 0:
		if with.Length() > 0 && with != r {
			pos := time.Duration(w.rng.Int63n(int64(r.Length()) + 1))
			res, err = w.fs.Insert(walkUser, r.ID, pos, rope.AudioVisual, with.ID, 0, min(with.Length(), time.Second))
		}
	case 1:
		if r.Length() > 0 && with.Length() > 0 && with != r {
			res, err = w.fs.Replace(walkUser, r.ID, rope.AudioVisual, 0, min(r.Length(), 500*time.Millisecond), with.ID, 0, min(with.Length(), time.Second))
		}
	case 2:
		if r.Length() >= 500*time.Millisecond {
			start, dur := span()
			fresh, res, err = w.fs.Substring(walkUser, r.ID, rope.AudioVisual, start, dur)
		}
	case 3:
		if r.Length()+with.Length() <= 20*time.Second {
			fresh, res, err = w.fs.Concate(walkUser, r.ID, with.ID)
		}
	case 4:
		if r.Length() >= time.Second {
			start, dur := span()
			res, err = w.fs.DeleteRange(walkUser, r.ID, rope.Medium(w.rng.Intn(3)), start, dur)
		}
	}
	w.tally.smoothed += res.CopiedBlocks()
	if fresh != nil {
		w.ropes = append(w.ropes, fresh.ID)
	}
	w.edited(r.ID)
	return err
}

// edited has the plan oracle hold the rope's plans to a fresh compile again.
func (w *walk) edited(id rope.ID) {
	delete(w.checked, id)
	w.touched = append(w.touched, id)
}

// remount syncs and mounts the device again, then plays every medium of
// one rope — of every rope, at the end of a walk — to its end, alone on
// the device.
func (w *walk) remount(all bool) error {
	w.wrote = true
	w.mounted = map[rope.ID]string{}
	for _, id := range w.ropes {
		w.mounted[id] = ropeOf(w.fs, id)
	}
	if err := w.fs.Sync(); err != nil {
		return err
	}
	fs, err := core.Open(w.fs.Disk(), w.fs.Options())
	if err != nil {
		return err
	}
	w.retire()
	w.fs = fs
	w.anchor()
	w.tally.remounts++
	ids := w.ropes
	if !all {
		ids = ids[w.rng.Intn(len(ids)):][:1]
	}
	for _, id := range ids {
		if r, ok := fs.Ropes().Get(id); ok && r.Length() > 0 && len(w.media(playArgs{rope: id})) > 0 {
			a := w.args(id)
			a.m = rope.AudioVisual
			if err := w.play(a, 0); err != nil {
				return err
			}
			w.drain()
		}
	}
	w.tally.samples += len(w.plays)
	return nil
}

// walkOracles are the walk's own oracles, which judge what its steps and
// rounds did; ask puts Check's state oracles beside them.
var walkOracles = []struct {
	name  string
	check func(w *walk) error
}{
	{"late", (*walk).lateOracle},
	{"k", (*walk).kOracle},
	{"clock", (*walk).clockOracle},
	{"plans", (*walk).planOracle},
	{"remount", (*walk).remountOracle},
}

// Check asks the state oracles — the cache against the platters, fsck,
// the junctions and the mirror twins — and joins their findings. It only
// reads: no clock, head, counter or steering table moves, so a caller
// that asks it after every trial sees the trials it would see without.
func Check(fs *core.FS) error {
	return errors.Join(named("cache", cacheOracle(fs)), stored(fs))
}

// stored asks the state oracles that scan stored state, which only a step
// that wrote or freed sectors or metadata changes.
func stored(fs *core.FS) error {
	return errors.Join(named("fsck", fsckOracle(fs)), named("junctions", junctionOracle(fs)), named("twins", twinOracle(fs)))
}

// ask runs every oracle the step calls for and joins their complaints.
func (w *walk) ask() error {
	w.settle()
	errs := []error{named("cache", cacheOracle(w.fs))}
	if w.wrote {
		errs = append(errs, stored(w.fs))
	}
	for _, o := range walkOracles {
		errs = append(errs, named(o.name, o.check(w)))
	}
	return errors.Join(errs...)
}

// named is an oracle's complaint under its name, nil without one.
func named(name string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// lateOracle: with no fault injected and no spindle killed, no block of
// an admitted play is late — the paper's guarantee. A play that reads
// fewer than two blocks ahead is let off: its second block can be late
// (ROADMAP item 1(a)).
func (w *walk) lateOracle() error {
	m := w.fs.Manager()
	seen := w.violations
	if w.violations = m.Stats().Violations; w.violations == seen || w.faulted || w.lateKnown {
		return nil
	}
	for i, p := range w.plays {
		if p.a.opts.ReadAhead < 2 {
			continue
		}
		for _, id := range p.h.Requests() {
			vs, err := m.Violations(id)
			if err != nil {
				return fmt.Errorf("play %d %+v: %w", i, p.a, err)
			}
			for _, v := range vs {
				if v.Cause == msm.CauseLate {
					return fmt.Errorf("play %d %+v: block %d late by %v", i, p.a, v.Block, v.Actual-v.Deadline)
				}
			}
		}
	}
	return nil
}

// kOracle: k moves by at most one a round (round measures it).
func (w *walk) kOracle() error {
	err := w.kErr
	w.kErr = nil
	return err
}

// clockOracle: the virtual clock never moves back (round measures it).
func (w *walk) clockOracle() error {
	err := w.tmErr
	w.tmErr = nil
	return err
}

// cacheOracle: the cache's own invariants hold, and every resident
// block — view or copy — belongs to a live strand and is, byte for byte,
// what that strand's reader fetches from the platters now. A view that
// is the platters' own page holds their bytes by construction.
func cacheOracle(fs *core.FS) error {
	c := fs.Manager().Cache()
	if c == nil {
		return nil
	}
	err := cache.CheckInvariants(c)
	var scratch []byte
	c.VisitEntries(func(sid strand.ID, index int, data []byte, lent bool) {
		s, ok := fs.Strands().Get(sid)
		if err != nil {
			return
		} else if !ok {
			err = fmt.Errorf("block %d of strand %d is cached (lent=%v) but the strand is gone", index, sid, lent)
			return
		}
		want, silent, rerr := strand.NewReader(fs.Disk(), s).BlockView(index, &scratch)
		switch {
		case rerr != nil || silent:
			err = fmt.Errorf("strand %d block %d is cached, yet a silence holder (%v) or unreadable (%v)", sid, index, silent, rerr)
		case len(data) > len(want) || len(data) > 0 && &data[0] != &want[0] && !bytes.Equal(data, want[:len(data)]):
			err = fmt.Errorf("strand %d block %d: the cached bytes (lent=%v) are not the platters'", sid, index, lent)
		}
	})
	return err
}

// fsckOracle: the integrity checker finds nothing.
func fsckOracle(fs *core.FS) error {
	if problems := fs.Check(); len(problems) != 0 {
		return fmt.Errorf("%d problem(s), the first: %v", len(problems), problems[0])
	}
	return nil
}

// junctionOracle: the editing guarantee (§4.2) — no junction of any
// rope, in either medium, hops farther than the placement policy's
// bound, however the rope was made and its strands moved since.
func junctionOracle(fs *core.FS) error {
	ed, bound := fs.Editor(), fs.Options().TargetCylinders
	for _, id := range fs.Ropes().IDs() {
		r, _ := fs.Ropes().Get(id)
		for _, m := range []rope.Medium{rope.VideoOnly, rope.AudioOnly} {
			for i := 0; i+1 < len(r.Intervals); i++ {
				j, err := ed.Junction(r, m, i)
				if err != nil {
					return fmt.Errorf("rope %d %v, junction %d: %w", id, m, i+1, err)
				}
				if j.Over(bound) {
					return fmt.Errorf("rope %d %v: junction %d hops %d cylinders, over the bound of %d", id, m, i+1, j.Cylinders, bound)
				}
			}
		}
	}
	return nil
}

// planOracle: for each rope the step played or edited, a PLAY of any of
// its media with its last PLAY's range and options (the whole rope if an
// edit cut the range away, or if it was never played) gets what a fresh
// compile gives — blocks, admission, header fields and map — and a repeat
// with other per-play options reuses it, whichever medium came between;
// the play the step admitted is that plan. It reads the repeat-play memo
// through core.FS.PlayPlan, the compile a PLAY runs; fsck holds the memo
// to plans of live ropes' media alone.
func (w *walk) planOracle() error {
	for _, id := range w.touched {
		r, live := w.fs.Ropes().Get(id)
		if !live {
			continue
		}
		a := w.last[id]
		if a.rope = id; a.start >= r.Length() || a.start+a.dur > r.Length() {
			a.start, a.dur = 0, 0
		}
		if c, seen := w.checked[id]; seen && a == c {
			continue
		}
		w.checked[id] = a
		// other differs in the per-play options alone: the same plan; flip
		// in Skip alone: at Speed > 1 another. The last pass leaves the memo
		// holding the plan as asked.
		other, flip := a.opts, a.opts
		other.ReadAhead, other.Buffers, other.Class = 3, 0, continuity.Premium
		flip.Skip = !flip.Skip
		firsts := map[rope.Medium]msm.PlayPlan{}
		for pass, opts := range []msm.PlanOptions{a.opts, other, flip, a.opts} {
			for _, m := range w.media(playArgs{rope: id}) {
				where := fmt.Sprintf("rope %d %v [%v +%v] %+v", id, m, a.start, a.dur, opts)
				got, gerr := w.fs.PlayPlan(r, m, a.start, a.dur, opts)
				want, werr := w.fs.Ropes().CompilePlay(w.fs.Disk(), r, m, a.start, a.dur, opts)
				switch {
				case (gerr != nil) != (werr != nil):
					return fmt.Errorf("%s: memo error %v, compiler error %v", where, gerr, werr)
				case werr != nil:
				case !reflect.DeepEqual(got, want):
					return fmt.Errorf("%s: the memo's plan is not a fresh compile's (%d blocks, admission %+v; want %d, %+v)",
						where, len(got.Blocks), got.Admission, len(want.Blocks), want.Admission)
				case pass == 0:
					firsts[m] = got
				case pass == 1 && &got.Blocks[0] != &firsts[m].Blocks[0]:
					return fmt.Errorf("%s: a repeat of the same input compiled again", where)
				case pass == 1:
					w.tally.reused++
				}
			}
		}
		for m, rid := range map[rope.Medium]msm.RequestID{rope.VideoOnly: w.played.VideoReq, rope.AudioOnly: w.played.AudioReq} {
			if want, ok := firsts[m]; rid != 0 && ok {
				if p, err := w.fs.Manager().Progress(rid); err != nil || p.Name != want.Name || p.BlocksTotal != len(want.Blocks) || p.Class != a.opts.Class {
					return fmt.Errorf("admitted %+v (%v), compiled %q (%d blocks, %v)", p, err, want.Name, len(want.Blocks), a.opts.Class)
				}
			}
		}
	}
	return nil
}

// twinOracle: on a mirrored array the twins of a pair with no dead
// spindle hold the same bytes — all of them, or those below the rebuild
// cursor while one is being rebuilt.
func twinOracle(fs *core.FS) error {
	arr := fs.Array()
	if arr == nil || !arr.Mirrored() {
		return nil
	}
	type materializer interface{ CylinderMaterialized(int) bool }
	g := arr.Spindle(0).Geometry()
	spc := g.Surfaces * g.SectorsPerTrack
	var sa, sb []byte
	for a := 0; a < arr.Spindles(); a += 2 {
		da, db, upTo := arr.Spindle(a), arr.Spindle(a+1), g.Cylinders
		switch {
		case arr.SpindleState(a) == disk.Dead || arr.SpindleState(a+1) == disk.Dead:
			continue
		case arr.RepairActive() && arr.RebuildTarget()/2 == a/2:
			upTo, _ = arr.RepairProgress()
		}
		ma, _ := da.(materializer)
		mb, _ := db.(materializer)
		for cyl := 0; cyl < upTo; cyl++ {
			if ma != nil && mb != nil && !ma.CylinderMaterialized(cyl) && !mb.CylinderMaterialized(cyl) {
				continue
			}
			if sa == nil {
				sa, sb = make([]byte, spc*g.SectorSize), make([]byte, spc*g.SectorSize)
			}
			va, erra := da.ViewAt(cyl*spc, spc, sa)
			vb, errb := db.ViewAt(cyl*spc, spc, sb)
			if err := errors.Join(erra, errb); err != nil || !bytes.Equal(va, vb) {
				return fmt.Errorf("twins %d and %d differ in cylinder %d (%v)", a, a+1, cyl, err)
			}
		}
	}
	return nil
}

// ropeOf is what a remount must keep of a rope.
func ropeOf(fs *core.FS, id rope.ID) string {
	if r, ok := fs.Ropes().Get(id); ok {
		return fmt.Sprintf("%v long, by %s", r.Length(), r.Creator)
	}
	return "lost"
}

// remountOracle: a remount keeps every rope, its length and its creator,
// and the sample plays after it, alone on the device, violate nothing
// barring a fault.
func (w *walk) remountOracle() error {
	if w.mounted == nil {
		return nil
	}
	defer func() { w.mounted = nil }()
	for id, was := range w.mounted {
		if now := ropeOf(w.fs, id); now != was {
			return fmt.Errorf("rope %d (%s) %s across the remount", id, was, now)
		}
	}
	for _, p := range w.plays {
		if v, err := w.fs.PlayViolations(p.h); err != nil {
			return err
		} else if v != 0 && !w.faulted {
			return fmt.Errorf("a sample play alone on the device violated %d time(s)", v)
		}
	}
	return nil
}

// serverEntry is a video server's walk, a stops share of arrivals stopped.
func serverEntry(shape walkShape, seed int64, stops float64, epochs int) walkEntry {
	l := serverLoad
	l.stopShare = stops
	return walkEntry{shape: shape, seed: seed, mix: serverMix, load: l, clips: serverClips, epochs: epochs}
}

// platterEntry walks everything that reads into, empties or could
// invalidate the 1 MiB interval cache: on one disk, or mirrored on small
// spindles with a fine stripe — so that the clips fill a good part of the
// stripe groups and every rebuild has live data to copy — where spindle
// 1 dies by script.
func platterEntry(seed int64, mirrored bool) walkEntry {
	e := walkEntry{shape: walkShape{CacheMB: 1}, seed: seed, mix: platterMix, load: platterLoad, records: 4, steps: 250}
	if mirrored {
		g := disk.DefaultGeometry()
		g.Cylinders = 120
		e.shape = walkShape{CacheMB: 1, Geometry: g, Disks: 4, Mirror: true, Stripe: 2, RebuildRate: 16,
			FaultSpindle: 1, Fault: fault.Scenario{Seed: seed, DieRound: 30 + int(seed*7%30)}}
	}
	return e
}

// lifecycleEntry walks the metadata on one disk.
func lifecycleEntry(seed int64) walkEntry {
	return walkEntry{seed: seed, mix: lifecycleMix, records: 2, steps: 40, lastMount: true}
}

// memoEntry plays and edits a handful of ropes on four spindles with
// varied options, so that plays repeat often and edits intervene: AV,
// video-only and audio-only ropes (silence holders in the audio), and a
// CONCATE of AV with video-only (a gap in its audio).
func memoEntry() walkEntry {
	return walkEntry{shape: walkShape{Disks: 4}, seed: 7, mix: memoMix, load: walkLoad{varied: true}, steps: 400,
		clips: []clip{{clipAV, 3}, {clipCBR, 2}, {clipAudio, 3}, {clipAV, 2}, {kind: clipConcat}}}
}
