package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// The walk is the one seeded driver of the file system's invariants: it
// formats a shape (the Options of a walkShape), records a catalogue, draws
// steps from one vocabulary and asks one oracle set (walkOracles) after
// every step. The seeded tests and FuzzWalk run walkEntry values: a new
// scenario is a new entry, step or oracle, not a new walk.

type walkShape Options

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

	walkEpochs = flag.Int("walk.epochs", 0, "epochs each TestWalkShapes shape walks (0: one)")
)

type walkPlay struct {
	h               PlayHandle
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
	fs      *FS
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
	played        PlayHandle
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
		w.fs, err = Open(w.device, Options(w.shape))
	} else {
		w.fs, err = Format(Options(w.shape))
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
			w.wrote, w.touched, w.played = s >= stepRecord, w.touched[:0], PlayHandle{}
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
	spec := RecordSpec{Creator: walkUser, Video: clipVideo(30*seconds, seed)}
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
	var res EditResult
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
	fs, err := Open(w.fs.Disk(), w.fs.Options())
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

// walkOracles is the one oracle set, asked after every step. An oracle
// that scans stored state (fsck, the twins) reads it only after a step
// that wrote or freed sectors or metadata: nothing else changes it.
var walkOracles = []struct {
	name  string
	check func(w *walk) error
}{
	{"late", (*walk).lateOracle},
	{"k", (*walk).kOracle},
	{"clock", (*walk).clockOracle},
	{"cache", (*walk).cacheOracle},
	{"fsck", (*walk).fsckOracle},
	{"junctions", (*walk).junctionOracle},
	{"plans", (*walk).planOracle},
	{"twins", (*walk).twinOracle},
	{"remount", (*walk).remountOracle},
}

// ask runs every oracle and joins their complaints.
func (w *walk) ask() error {
	w.settle()
	var errs []error
	for _, o := range walkOracles {
		if err := o.check(w); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", o.name, err))
		}
	}
	return errors.Join(errs...)
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
			vs, _ := m.Violations(id)
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
func (w *walk) cacheOracle() error {
	c := w.fs.Manager().Cache()
	if c == nil {
		return nil
	}
	err := cache.CheckInvariants(c)
	var scratch []byte
	c.VisitEntries(func(sid strand.ID, index int, data []byte, lent bool) {
		s, ok := w.fs.Strands().Get(sid)
		if err != nil {
			return
		} else if !ok {
			err = fmt.Errorf("block %d of strand %d is cached (lent=%v) but the strand is gone", index, sid, lent)
			return
		}
		want, silent, rerr := strand.NewReader(w.fs.Disk(), s).BlockView(index, &scratch)
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
func (w *walk) fsckOracle() error {
	if !w.wrote {
		return nil
	}
	if problems := w.fs.Check(); len(problems) != 0 {
		return fmt.Errorf("%d problem(s), the first: %v", len(problems), problems[0])
	}
	return nil
}

// junctionOracle: the editing guarantee (§4.2) — no junction of any
// rope, in either medium, hops farther than the placement policy's
// bound, however the rope was made and its strands moved since.
func (w *walk) junctionOracle() error {
	if !w.wrote {
		return nil
	}
	ed, bound := w.fs.Editor(), w.fs.Options().TargetCylinders
	for _, id := range w.fs.Ropes().IDs() {
		r, _ := w.fs.Ropes().Get(id)
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

// planOracle: the repeat-play memo holds at most a plan per rope medium
// and none of a rope that is gone; for each rope the step played or
// edited, a PLAY of any of its media with its last PLAY's range and
// options (the whole rope if an edit cut the range away, or if it was
// never played) gets what a fresh compile gives — blocks, admission,
// header fields and map — and a repeat with other per-play options
// reuses it, whichever medium came between; the play the step admitted
// is that plan.
func (w *walk) planOracle() error {
	if n := w.fs.Ropes().Len(); len(w.fs.plays) > 2*n {
		return fmt.Errorf("%d memo entries for %d ropes", len(w.fs.plays), n)
	}
	for key := range w.fs.plays {
		if _, ok := w.fs.Ropes().Get(key.rope); !ok {
			return fmt.Errorf("rope %d is gone, its %v plan still held", key.rope, key.m)
		}
	}
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
				got, gerr := w.fs.playPlan(r, m, a.start, a.dur, opts)
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
func (w *walk) twinOracle() error {
	arr := w.fs.Array()
	if !w.wrote || arr == nil || !arr.Mirrored() {
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
func ropeOf(fs *FS, id rope.ID) string {
	if r, ok := fs.Ropes().Get(id); ok {
		return fmt.Sprintf("%v long, by %s", r.Length(), r.Creator)
	}
	return "lost"
}

// remountOracle: a remount keeps every rope, its length and its creator,
// and the sample plays after it, alone on the device, violate nothing
// barring a fault.
func (w *walk) remountOracle() error {
	defer func() { w.mounted = nil }()
	for id, was := range w.mounted {
		if now := ropeOf(w.fs, id); now != was {
			return fmt.Errorf("rope %d (%s) %s across the remount", id, was, now)
		}
	}
	for _, p := range w.plays {
		if v, _ := w.fs.PlayViolations(p.h); w.mounted != nil && v != 0 && !w.faulted {
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

// The guarantee on the array (ROADMAP item 1(a)): with no fault injected
// and no PAUSE, no block of an admitted stream is late, at about twice
// the load the array admits. At 4c53fed half of them were: strands walked
// a cylinder a block, off the spindle they were admitted on.
func TestAdmittedStreamsAreOnTimeOnTheArray(t *testing.T) {
	w, err := runWalk(serverEntry(walkShape{Disks: 4}, 1, 0.10, 40), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl := w.tally; tl.admitted < 1000 || tl.blocks < 100*tl.admitted/2 {
		t.Fatalf("the walk admitted %d session(s) and delivered %d block(s): too few to mean anything", tl.admitted, tl.blocks)
	}
}

// The guarantee on an array with the interval cache: the same walk, with
// and without stops, on a 4-spindle array carrying a 64 MiB cache, plain
// and mirrored. A leader feeding the cache reads on its own spindle's
// lane, the spindle admission charged it to; while leaders rode the
// serial lane, one timeline carried the whole array's disk work and
// about a fifth of the blocks were late (ROADMAP item 13(a)). With a
// 2 MiB cache intervals break often, and a follower that falls back to
// the disk reads with no admission's charge behind it: item 13(b).
func TestAdmittedStreamsAreOnTimeOnTheArrayWithACache(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape walkShape
		skip  string
	}{
		{"cache64MiB", walkShape{Disks: 4, CacheMB: 64}, ""},
		{"cache64MiB-mirror", walkShape{Disks: 4, CacheMB: 64, Mirror: true}, ""},
		{"cache2MiB", walkShape{Disks: 4, CacheMB: 2}, "known residual: a demoted follower's disk reads are uncharged (ROADMAP item 13(b))"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip != "" {
				t.Skip(tc.skip)
			}
			for _, stops := range []float64{0, 0.10} {
				w, err := runWalk(serverEntry(tc.shape, 1, stops, 10), nil)
				if err != nil {
					t.Fatalf("stops %v: %v", stops, err)
				}
				if hits := w.fs.Manager().Cache().Stats().Hits; w.tally.admitted < 1000 || hits == 0 {
					t.Fatalf("stops %v: the walk admitted %d session(s) and its last epoch hit the cache %d time(s): too few to mean anything", stops, w.tally.admitted, hits)
				}
			}
		})
	}
}

// The walk that once showed a late block with no fault and no PAUSE: one
// epoch in 400 (seeds 1–400, this one alone). Cause: service-slot drift
// across a k transition. The file system serves a round in arrival order
// (it never selects ScanOrder), so a stream's place in the round is fixed
// but the time of its turn is not: it follows the work of the streams
// ahead of it. Session 7 is admitted at k = 4 and starts its display in a
// round at k = 7 in which its turn comes early; five more streams are
// admitted meanwhile, the next round runs at k = 8 with twelve streams and
// its turn comes late. Both rounds are within Eq. 18's k·γ, but the two
// services were 0.80 s apart and the seven blocks buffered between them
// play for 0.70 s. Eq. 18 bounds a round, not the gap between a stream's
// turns in consecutive rounds when the work ahead of a turn changes.
// Since run reads finish rounds well inside their charge this seed plays
// clean, so lateness no longer detects the drift: ROADMAP item 1(a)'s
// per-turn oracle and item 7's deadline-margin histogram are where it is
// to be taken up.
func TestSlotDriftAcrossAKTransition(t *testing.T) {
	t.Skip("known residual: service-slot drift while k steps up, hidden by run-read slack; see the comment")
	if _, err := runWalk(serverEntry(walkShape{Disks: 4}, 390, 0.10, 1), nil); err != nil {
		t.Fatal(err)
	}
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

// Whatever the file system does, what the cache holds is what the
// platters hold.
func TestCachedBytesAlwaysMatchThePlatters(t *testing.T) {
	for _, mirrored := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("mirrored=%v/seed%d", mirrored, seed), func(t *testing.T) {
				w, err := runWalk(platterEntry(seed, mirrored), nil)
				if err != nil {
					t.Fatal(err)
				}
				if mirrored && w.tally.rebuilt == 0 {
					t.Fatalf("the walk never rebuilt a spindle")
				}
				snap := w.fs.Metrics().Snapshot()
				for _, name := range []string{"mmfs_cache_inserts_total", "mmfs_cache_hits_total", "mmfs_cache_adoptions_total", "mmfs_cache_evictions_total"} {
					if v, _ := snap.Counter(name); v == 0 {
						t.Fatalf("%s = 0: the walk never exercised the cache", name)
					}
				}
			})
		}
	}
}

// lifecycleEntry walks the metadata on one disk.
func lifecycleEntry(seed int64) walkEntry {
	return walkEntry{seed: seed, mix: lifecycleMix, records: 2, steps: 40, lastMount: true}
}

// Random sequences of records, edits, text files, triggers, deletions,
// reorganizations and compactions leave a file system the integrity
// checker passes, that survives a Sync and remount, and whose ropes play
// without a violation (a sample after each remount, all after the last).
func TestRandomLifecycle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w, err := runWalk(lifecycleEntry(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			if w.tally.remounts < 2 || w.tally.samples < 2 {
				t.Fatalf("%d remount(s), %d sample play(s): a case went untested", w.tally.remounts, w.tally.samples)
			}
		})
	}
}

// memoEntry plays and edits a handful of ropes on four spindles with
// varied options, so that plays repeat often and edits intervene: AV,
// video-only and audio-only ropes (silence holders in the audio), and a
// CONCATE of AV with video-only (a gap in its audio).
func memoEntry() walkEntry {
	return walkEntry{shape: walkShape{Disks: 4}, seed: 7, mix: memoMix, load: walkLoad{varied: true}, steps: 400,
		clips: []clip{{clipAV, 3}, {clipCBR, 2}, {clipAudio, 3}, {clipAV, 2}, {kind: clipConcat}}}
}

// A PLAY that reuses a rope's compiled plan admits exactly the plan a
// fresh compile of the same arguments gives, however the rope was edited
// since and whatever the earlier plays asked for, and a deleted rope's
// plans leave the memo (the plan oracle).
func TestRepeatPlayReusesTheExactPlan(t *testing.T) {
	w, err := runWalk(memoEntry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tl := w.tally
	t.Logf("%d plays admitted, %d plans reused, %d blocks smoothed, %d ropes deleted", tl.admitted, tl.reused, tl.smoothed, tl.deleted)
	if tl.smoothed == 0 || tl.deleted == 0 || tl.admitted == 0 || tl.reused == 0 {
		t.Fatalf("a case went untested")
	}
}

// Every oracle bites: a walk with one protection taken away fails it, in
// the way that protection exists to prevent. (Each entry is one whose
// walk meets the hazard.)
func TestPlatterOracleCatchesSeededMutations(t *testing.T) {
	after := func(s step, f func(w *walk)) func(*walk, step) {
		return func(w *walk, t step) {
			if t == s {
				f(w)
			}
		}
	}
	for _, tc := range []struct {
		name string
		e    walkEntry
		mut  func(w *walk, s step)
		want string
	}{
		{"no invalidation on removal", platterEntry(1, false), func(w *walk, _ step) { w.fs.Strands().OnRemove(nil) }, "the strand is gone"},
		{"rounds pinned at k=1", serverEntry(walkShape{Disks: 4}, 1, 0.10, 1), func(w *walk, _ step) { w.fs.Manager().ForceK(1); w.k = 1 }, "late: play"},
		{"k jumps", platterEntry(1, false), after(stepRounds, func(w *walk) { w.fs.Manager().ForceK(w.k + 3) }), "k: k moved from"},
		{"an unannounced manager", platterEntry(1, false), after(stepRounds, func(w *walk) { w.fs.NewManager() }), "clock: the clock went back"},
		{"a write to one twin", platterEntry(1, true), after(stepRecord, func(w *walk) { w.fs.Array().Spindle(2).WriteAt(0, []byte("junk")) }), "twins: twins 2 and 3 differ"},
		{"a run freed behind the allocator", lifecycleEntry(1), after(stepRecord, func(w *walk) {
			r, _ := w.fs.Ropes().Get(w.ropes[len(w.ropes)-1])
			w.fs.Allocator().Free(w.fs.Strands().MustGet(r.Strands()[0]).MediaRuns()[0])
		}), "fsck: "},
		{"a memo an edit leaves in place", memoEntry(), after(stepEdit, func(w *walk) {
			for _, id := range w.touched {
				r, _ := w.fs.Ropes().Get(id)
				a := w.last[id]
				for key, e := range w.fs.plays {
					if ivs, err := w.fs.ropes.PlayIntervals(r, key.m, a.start, a.dur); key.rope == id && err == nil {
						e.ivs, e.in = ivs, planInput{a.opts.Speed, a.opts.Scattering, a.opts.Skip}
						w.fs.plays[key] = e
					}
				}
			}
		}), "not a fresh compile's"},
		{"a relocation left unsmoothed", lifecycleEntry(1), after(stepEdit, func(w *walk) {
			// The edited ropes' strands move to the disk's two ends while the
			// editor's bound is lifted: the re-smooth after each finds nothing
			// to do, as if it had been skipped.
			ed := w.fs.Editor()
			bound, far := ed.MaxCylinders, w.fs.Allocator().Geometry().Cylinders-1
			ed.MaxCylinders = far
			defer func() { ed.MaxCylinders = bound }()
			for _, id := range w.touched {
				if r, ok := w.fs.Ropes().Get(id); ok {
					for i, sid := range r.Strands() {
						w.fs.ReorganizeStrand(sid, far*(i%2))
					}
				}
			}
		}), "junctions: "},
		{"a remount without Sync", lifecycleEntry(1), after(stepEdit, func(w *walk) {
			w.mounted = map[rope.ID]string{}
			for _, id := range w.ropes {
				w.mounted[id] = ropeOf(w.fs, id)
			}
			w.fs, _ = Open(w.fs.Disk(), w.fs.Options())
		}), "lost across the remount"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.e.mut = tc.mut
			if _, err := runWalk(tc.e, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mutated walk: %v; want an oracle failure saying %q", err, tc.want)
			}
		})
	}
}

// walkFindings are the shapes on which the server walk at seed 1 plays
// late, each with the epoch of its first late block: every 2 MiB shape,
// and 64 MiB on four spindles striped coarsely (ROADMAP item 13(b)). A
// window stops before that epoch; one that would walk nothing is skipped.
var walkFindings = map[string]int{
	"disks1-cache2MiB": 2, "disks1-cache2MiB-qos4": 2,
	"disks4-cache2MiB": 1, "disks4-cache2MiB-qos4": 0, "disks4-cache2MiB-stripe1": 1, "disks4-cache2MiB-stripe1-qos4": 1,
	"disks4-cache2MiB-mirror": 0, "disks4-cache2MiB-mirror-qos4": 1, "disks4-cache2MiB-mirror-stripe1": 0, "disks4-cache2MiB-mirror-stripe1-qos4": 1,
	"disks4-cache64MiB": 16, "disks4-cache64MiB-qos4": 16, "disks4-cache64MiB-mirror": 39, "disks4-cache64MiB-mirror-qos4": 39,
}

// TestWalkShapes walks the video server's load, one epoch (-walk.epochs
// more), on every shape of the matrix: one disk or four; no cache, 2 MiB
// or 64 MiB; mirrored or not and a coarse or a one-cylinder stripe, on
// four; QoS load shedding off or at stride 4. The shapes of one device
// mount its catalogue, each with its own cache and QoS.
func TestWalkShapes(t *testing.T) {
	for _, dev := range []walkShape{{}, {Disks: 4}, {Disks: 4, Stripe: 1}, {Disks: 4, Mirror: true}, {Disks: 4, Mirror: true, Stripe: 1}} {
		base, err := runWalk(walkEntry{shape: dev, clips: serverClips}, []step{})
		if err == nil {
			err = base.fs.Sync()
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, cacheMB := range []int{0, 2, 64} {
			for _, qos := range []int{0, 4} {
				s := dev
				s.CacheMB, s.QoSMaxStride = cacheMB, qos
				t.Run(s.String(), func(t *testing.T) {
					e := serverEntry(s, 1, 0.10, max(*walkEpochs, 1))
					if at, ok := walkFindings[s.String()]; ok && at == 0 {
						t.Skip("known residual: seed 1 plays late in epoch 0 — a follower demoted off the cache reads the disk uncharged (ROADMAP item 13(b))")
					} else if ok {
						e.epochs = min(e.epochs, at)
					}
					e.clips, e.device = nil, base.fs.Disk()
					if _, err := runWalk(e, nil); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// fuzzEntry decodes a FuzzWalk shape byte: bits 0–1 the cache (none, 1,
// 2 or 64 MiB), bit 2 four spindles, bit 3 mirrored, bit 4 a
// one-cylinder stripe, bit 5 QoS stride 4, bit 6 a fault seeded with
// seed — a scripted spindle death on a mirrored array, read errors and
// latency spikes otherwise. Lateness is not judged where walkFindings
// lists the shape (a 1 MiB cache as a 2 MiB one: ROADMAP item 13(b)).
// The spindles are small, so that an input walks in tens of milliseconds.
func fuzzEntry(b uint8, seed int64) walkEntry {
	g := disk.DefaultGeometry()
	g.Cylinders = 120
	s := walkShape{Geometry: g, CacheMB: []int{0, 1, 2, 64}[b&3], RebuildRate: 16, QoSMaxStride: int(b>>5&1) * 4}
	if b&4 != 0 {
		s.Disks, s.Mirror, s.Stripe = 4, b&8 != 0, int(b>>4&1)
	}
	if b&64 != 0 && s.Mirror {
		s.FaultSpindle, s.Fault = 1, fault.Scenario{Seed: seed, DieRound: 20 + int(uint64(seed)%30)}
	} else if b&64 != 0 {
		s.Fault = fault.Scenario{Seed: seed, ReadErrorRate: 0.02, SlowdownRate: 0.05, SlowdownFactor: 4}
	}
	e := walkEntry{shape: s, seed: seed, load: walkLoad{lambda: 4, stopShare: 0.1, avShare: 1.0 / 3, follow: 0.5}, records: 2, lastMount: true}
	known := s
	if s.CacheMB == 1 {
		known.CacheMB = 2
	}
	_, e.lateKnown = walkFindings[known.String()]
	return e
}

// FuzzWalk decodes its input into a shape (fuzzEntry), a fault seed and
// steps, a byte each, and walks them, asking every oracle after every
// step. A failing input lands in testdata/fuzz/FuzzWalk and replays with
// go test -run 'FuzzWalk/<name>' ./internal/core.
func FuzzWalk(f *testing.F) {
	const arrive, stop, rounds, kill, record, rebuild = byte(stepArrive), byte(stepStop), byte(stepRounds), byte(stepKill), byte(stepRecord), byte(stepRebuild)
	// Seed 390, the service-slot drift's (ROADMAP item 1(a)).
	f.Add(uint8(4), int64(390), bytes.Repeat([]byte{arrive}, 40))
	// The array with a cache that broke the guarantee (ROADMAP item 13(a)),
	// on a one-cylinder stripe: the coarse one's lateness is item 13(b)'s.
	f.Add(uint8(16|4|3), int64(1), bytes.Repeat([]byte{arrive, arrive, rounds}, 16))
	// A leader stopped with followers trailing it in the cache.
	f.Add(uint8(2), int64(3), bytes.Repeat([]byte{arrive, arrive, rounds, stop, rounds}, 8))
	// A mirrored array whose spindle dies, is replaced and rebuilt.
	f.Add(uint8(64|8|4|1), int64(5), bytes.Repeat([]byte{arrive, rounds, kill, rounds, rebuild, rounds, record}, 4))
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, input []byte) {
		steps := make([]step, min(len(input), 48))
		for i := range steps {
			steps[i] = step(input[i] % byte(numSteps))
		}
		if _, err := runWalk(fuzzEntry(shape, seed), steps); err != nil {
			t.Fatal(err)
		}
	})
}
