package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// Script generation is separate from execution: genScript turns
// (workload, seed, seconds) into the full list of operations before
// any set-up runs, and the runners and the daemon see only that list.
// A script is a fixed amount of work — fixed counts, never "as many as
// fit" — because per-PLAY cost depends on how many requests a storage
// manager has ever seen (README, "Why fixed scripts"), so two commits
// must be handed identical work. -seconds scales the counts; it is the
// run's deadline, not its definition.

// opKind names one operation type; it indexes the per-op latency
// tables.
type opKind uint8

const (
	opPlay opKind = iota
	opFetch
	opInfo
	opListRopes
	opMetrics
	opStats
	opRecord
	opInsert
	opSubstring
	opConcate
	opDelRange
	opDelRope
	opCheck
	numOpKinds
)

var opNames = [numOpKinds]string{"play", "fetch", "info", "listropes", "metrics", "stats",
	"record", "insert", "substring", "concate", "delrange", "delrope", "check"}

func (k opKind) String() string { return opNames[k] }

// Catalogue and media shape shared by every workload: NTSC-class
// video at 30 frames/s of 18 000 B, telephone audio at 10 units/s of
// 800 samples. A clip second is therefore 30 frames and 10 units.
const (
	videoRate   = 30
	frameBytes  = 18000
	audioRate   = 10
	audioBytes  = 800
	ropeSeconds = 10 // catalogue rope length
	clipSeconds = 5  // wire-edit uploaded clip length
	editClips   = 8  // distinct pregenerated clips wire-edit cycles through
	editBases   = 4  // base ropes wire-edit inserts into
	insertSecs  = 2  // seconds of the clip each cycle inserts
)

// vodOpsPerSec is wire-vod's frozen size (see workloadSpec.PerSec).
const vodOpsPerSec = 360

// vodOp is one closed-loop request of wire-vod.
type vodOp struct {
	Kind  opKind        `json:"k"`
	Rope  int           `json:"r"`           // catalogue index
	Start time.Duration `json:"s,omitempty"` // PLAY/FETCH range start
	Dur   time.Duration `json:"d,omitempty"` // 0 = to the end
}

// editCycle is one wire-edit cycle: RECORD clip → INSERT 2 s of it at
// Pos of base → SUBSTRING around the splice → CONCATE with the clip →
// PLAY → FETCH+validate → DELETE range → DELETE the three temporaries.
type editCycle struct {
	Clip  int           `json:"c"`
	Base  int           `json:"b"`
	Pos   time.Duration `json:"p"` // whole seconds, 1..ropeSeconds-2
	From  time.Duration `json:"f"` // clip offset the insert takes from
	Check bool          `json:"chk,omitempty"`
}

type evKind uint8

const (
	evArrive evKind = iota
	evStop
	evPause
	evResume
)

// event is one step of a serve-* epoch, in virtual-time order.
type event struct {
	At      time.Duration `json:"t"`
	Kind    evKind        `json:"k"`
	Session int           `json:"s"`           // arrival index within the epoch
	Rope    int           `json:"r,omitempty"` // evArrive only
}

// epoch is one independent playback trial of a serve-* workload: a
// fresh storage manager, a window of Poisson arrivals, and one direct
// fetch whose frames are validated.
type epoch struct {
	Events     []event       `json:"ev"`
	Arrivals   int           `json:"n"`
	FetchRope  int           `json:"fr"`
	FetchStart time.Duration `json:"fs"`
}

// script is everything one run will do.
type script struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  int         `json:"seconds"`
	Vod      []vodOp     `json:"vod,omitempty"`
	Edit     []editCycle `json:"edit,omitempty"`
	Epochs   []epoch     `json:"epochs,omitempty"`
}

// units is how many script units (ops, cycles or epochs) the script
// holds.
func (s *script) units() int { return len(s.Vod) + len(s.Edit) + len(s.Epochs) }

// sha256 fingerprints the script, so two runs can prove they did the
// same work.
func (s *script) sha256() string {
	buf, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain structs of ints cannot fail to marshal
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// workloadSpec is the static description of one workload.
type workloadSpec struct {
	Name string
	// Wire workloads spawn mmfsd (daemonArgs); serve workloads format
	// a core.FS in-process with the same options (fsOptions).
	Wire    bool
	Disks   int
	CacheMB int
	Ropes   int     // catalogue size
	ZipfS   float64 // rope popularity skew
	// PerSec is the frozen sizing: script units (ops, cycles, epochs)
	// per second of -seconds, calibrated on the seed commit (README,
	// "Sizing") so the script takes 55–75 % of -seconds on the
	// reference machine. Every commit is handed the same work; do not
	// retune it in a change that claims a gain.
	PerSec int
	// StopShare and PauseShare are the shares of serve-* sessions that
	// STOP early or PAUSE and RESUME. Both are 0 on serve-cache: on the
	// seed commit, stopping or pausing an interval-cache leader can leave
	// its follower re-adopting and missing for ever inside
	// Manager.processDemotions without the clock advancing (README,
	// "Known gaps").
	StopShare, PauseShare float64
}

var workloads = []workloadSpec{
	{Name: "wire-vod", Wire: true, Disks: 4, CacheMB: 64, Ropes: 24, ZipfS: 1.2, PerSec: vodOpsPerSec},
	{Name: "wire-edit", Wire: true, Disks: 1, Ropes: editBases, PerSec: 30},
	{Name: "serve-striped", Disks: 4, Ropes: 40, ZipfS: 1.1, StopShare: 0.10, PauseShare: 0.10, PerSec: 48},
	{Name: "serve-cache", Disks: 1, CacheMB: 64, Ropes: 40, ZipfS: 1.5, PerSec: 27},
}

// daemonArgs are the mmfsd flags that give the daemon the workload's
// disks and cache.
func (w workloadSpec) daemonArgs() []string {
	var args []string
	if w.Disks > 1 {
		args = append(args, "-disks", strconv.Itoa(w.Disks))
	}
	if w.CacheMB > 0 {
		args = append(args, "-cachemb", strconv.Itoa(w.CacheMB))
	}
	return args
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// Arrival process of the serve-* epochs.
const (
	arrivalRate   = 4.0 // Poisson λ, sessions per virtual second
	arrivalWindow = 30 * time.Second
)

// genScript builds the script for one run. The same (workload, seed,
// seconds) always yields the same script.
func genScript(w workloadSpec, seed int64, seconds int) *script {
	h := fnv.New64a()
	h.Write([]byte(w.Name))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	s := &script{Workload: w.Name, Seed: seed, Seconds: seconds}
	switch n := w.PerSec * seconds; {
	case w.Name == "wire-vod":
		s.Vod = genVod(rng, w, n)
	case w.Wire:
		s.Edit = genEdit(rng, n)
	default:
		s.Epochs = genEpochs(rng, w, n)
	}
	return s
}

// zipf draws catalogue indices with popularity skew s (rank 0 hottest).
func zipf(rng *rand.Rand, s float64, n int) func() int {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// genVod draws the wire-vod mix: 55 % PLAY (whole / 5 s / 2 s segment
// of a Zipf-chosen rope), 25 % FETCH of one second of video, 10 % INFO,
// 5 % LISTROPES, 5 % METRICS.
func genVod(rng *rand.Rand, w workloadSpec, n int) []vodOp {
	pick := zipf(rng, w.ZipfS, w.Ropes)
	ops := make([]vodOp, 0, n)
	for i := 0; i < n; i++ {
		op := vodOp{Rope: pick()}
		switch p := rng.Float64(); {
		case p < 0.55:
			op.Kind = opPlay
			switch q := rng.Float64(); {
			case q < 0.25: // whole rope
			case q < 0.60:
				op.Dur = 5 * time.Second
				op.Start = time.Duration(rng.Intn(ropeSeconds-5+1)) * time.Second
			default:
				op.Dur = 2 * time.Second
				op.Start = time.Duration(rng.Intn(ropeSeconds-2+1)) * time.Second
			}
		case p < 0.80:
			op.Kind = opFetch
			op.Dur = time.Second
			op.Start = time.Duration(rng.Intn(ropeSeconds)) * time.Second
		case p < 0.90:
			op.Kind = opInfo
		case p < 0.95:
			op.Kind = opListRopes
		default:
			op.Kind = opMetrics
		}
		ops = append(ops, op)
	}
	return ops
}

// genEdit draws the wire-edit cycles; every 20th also runs CHECK.
func genEdit(rng *rand.Rand, n int) []editCycle {
	cycles := make([]editCycle, 0, n)
	for i := 0; i < n; i++ {
		cycles = append(cycles, editCycle{
			Clip:  rng.Intn(editClips),
			Base:  rng.Intn(editBases),
			Pos:   time.Duration(1+rng.Intn(ropeSeconds-2)) * time.Second,
			From:  time.Duration(rng.Intn(clipSeconds-insertSecs+1)) * time.Second,
			Check: i%20 == 19,
		})
	}
	return cycles
}

// genEpochs draws the serve-* epochs: seeded Poisson arrivals over the
// window, Zipf rope choice, and for a tenth of the sessions each an
// early STOP or a PAUSE/RESUME pair, merged into one time-ordered
// event list.
func genEpochs(rng *rand.Rand, w workloadSpec, n int) []epoch {
	pick := zipf(rng, w.ZipfS, w.Ropes)
	secs := func(lo, hi float64) time.Duration {
		return time.Duration((lo + rng.Float64()*(hi-lo)) * float64(time.Second))
	}
	epochs := make([]epoch, 0, n)
	for i := 0; i < n; i++ {
		var ep epoch
		var at time.Duration
		for {
			at += time.Duration(rng.ExpFloat64() / arrivalRate * float64(time.Second))
			if at >= arrivalWindow {
				break
			}
			sess := ep.Arrivals
			ep.Arrivals++
			ep.Events = append(ep.Events, event{At: at, Kind: evArrive, Session: sess, Rope: pick()})
			switch p := rng.Float64(); {
			case p < w.StopShare:
				ep.Events = append(ep.Events, event{At: at + secs(1, 8), Kind: evStop, Session: sess})
			case p < w.StopShare+w.PauseShare:
				pause := at + secs(1, 5)
				ep.Events = append(ep.Events,
					event{At: pause, Kind: evPause, Session: sess},
					event{At: pause + secs(0.5, 3), Kind: evResume, Session: sess})
			}
		}
		sort.SliceStable(ep.Events, func(a, b int) bool { return ep.Events[a].At < ep.Events[b].At })
		ep.FetchRope = pick()
		ep.FetchStart = time.Duration(rng.Intn(ropeSeconds)) * time.Second
		epochs = append(epochs, ep)
	}
	return epochs
}
