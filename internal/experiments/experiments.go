// Package experiments regenerates every quantitative artifact of
// Rangan & Vin (SOSP '91): Figure 4's k-versus-n curve, the continuity
// feasibility frontiers of Eqs. 1–6, the n_max bound of Eq. 17, the
// transient-safe admission transition of Eq. 18, the editing copy
// bounds of Eqs. 19–20, the read-ahead and fast-forward analyses of
// §3.3.2, silence elimination (§4), and the HDTV motivating arithmetic
// of §3. Each experiment pairs the paper's closed-form prediction with
// a measurement on the simulated file system, and renders a
// paper-shaped table.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// seedBase offsets every seeded chaos workload (EXP-FT, EXP-STRIPE,
// EXP-QOS); cmd/mmexperiments -seed sets it so the nightly chaos loop
// replays the same experiments under distinct deterministic storms.
var seedBase int64

// SetSeedBase installs the workload seed offset (0 restores the
// default seeds).
func SetSeedBase(s int64) { seedBase = s }

// Result is one experiment's rendered outcome.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "EXP-F4").
	ID string
	// Title describes what is reproduced.
	Title string
	// Headers are the table column names.
	Headers []string
	// Rows are the table cells.
	Rows [][]string
	// Notes carry the comparison against the paper's claim.
	Notes []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a note line.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render pretty-prints the result as an aligned text table.
func Render(w io.Writer, r Result) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Headers)
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// All runs every experiment in DESIGN.md order.
func All() []Result {
	return []Result{
		F4(),
		E1Sequential(),
		E2Pipelined(),
		E3Concurrent(),
		E46MixedMedia(),
		NMax(),
		Transition(),
		EditCopy(),
		ReadAhead(),
		Silence(),
		HDTV(),
		FastForward(),
		VBR(),
		Scan(),
		Reorg(),
		IntervalCache(),
		FaultTolerance(),
		Stripe(),
		QoS(),
		Rebuild(),
	}
}

// ByID looks an experiment runner up by its short name (the -exp flag
// of cmd/mmexperiments).
func ByID(id string) (func() Result, bool) {
	m := map[string]func() Result{
		"f4":      F4,
		"e1":      E1Sequential,
		"e2":      E2Pipelined,
		"e3":      E3Concurrent,
		"e46":     E46MixedMedia,
		"nmax":    NMax,
		"trans":   Transition,
		"edit":    EditCopy,
		"ra":      ReadAhead,
		"sil":     Silence,
		"hdtv":    HDTV,
		"ff":      FastForward,
		"vbr":     VBR,
		"scan":    Scan,
		"reorg":   Reorg,
		"ic":      IntervalCache,
		"ft":      FaultTolerance,
		"stripe":  Stripe,
		"qos":     QoS,
		"rebuild": Rebuild,
	}
	f, ok := m[strings.ToLower(id)]
	return f, ok
}

// ntsc is the experiment's standard video medium.
func ntsc() continuity.Media { return continuity.NTSCVideo() }

// stdDevice is the continuity view of the default geometry.
func stdDevice() continuity.Device {
	return msm.DeviceFor(disk.DefaultGeometry())
}

// stdRequest is the admission-control request template used across
// admission experiments: NTSC video at granularity q under the
// default placement policy.
func stdRequest(q int) continuity.Request {
	g := disk.DefaultGeometry()
	m := ntsc()
	return continuity.Request{
		Name:        "video",
		Granularity: q,
		UnitBits:    m.UnitBits,
		Rate:        m.Rate,
		Scattering:  continuity.Seconds(g.AccessTime(32)),
	}
}

// rig is the standard experimental file system.
type rig struct {
	fs *core.FS
}

func newRig() *rig {
	fs, err := core.Format(core.Options{})
	if err != nil {
		panic(err)
	}
	return &rig{fs: fs}
}

// frameBytes is the experiment video frame size (18 KB ≈ 8:1
// compressed NTSC).
const frameBytes = 18000

// recordVideoRope records a video-only clip of the given length and
// returns the rope and its strand.
func (r *rig) recordVideoRope(seconds int, seed int64) (*rope.Rope, *strand.Strand) {
	frames := 30 * seconds
	sess, err := r.fs.Record(core.RecordSpec{
		Creator: "exp",
		Video:   media.NewVideoSource(frames, frameBytes, 30, seed),
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: record: %v", err))
	}
	r.fs.Manager().RunUntilDone()
	rp, err := sess.Finish()
	if err != nil {
		panic(err)
	}
	s := r.fs.Strands().MustGet(rp.Intervals[0].Video.Strand)
	return rp, s
}

// playStrands admits one PLAY per strand on a fresh manager with the
// given read-ahead and blocks-per-round override (0 = admission's own
// k), runs to completion, and returns total violations.
func (r *rig) playStrands(strands []*strand.Strand, readAhead, buffers, forceK int) (violations int, mgr *msm.Manager) {
	mgr = r.fs.NewManager()
	if forceK > 0 {
		// Forced-k trials bypass the stepwise transition so every
		// stream is admitted at virtual time zero under the k being
		// probed.
		mgr.SetPolicy(msm.NaiveJump)
		mgr.ForceK(forceK)
	}
	var ids []msm.RequestID
	for _, s := range strands {
		plan, err := msm.PlanStrandPlay(r.fs.Disk(), s, msm.PlanOptions{
			ReadAhead:  readAhead,
			Buffers:    buffers,
			Scattering: r.fs.TargetScattering(),
		})
		if err != nil {
			panic(err)
		}
		id, _, err := mgr.AdmitPlay(plan)
		if err != nil {
			return -1, mgr // admission rejected
		}
		ids = append(ids, id)
		if forceK > 0 {
			mgr.ForceK(forceK)
		}
	}
	mgr.RunUntilDone()
	total := 0
	for _, id := range ids {
		v, err := mgr.Violations(id)
		if err != nil {
			panic(err)
		}
		total += len(v)
	}
	return total, mgr
}

// ms formats seconds as milliseconds.
func ms(sec float64) string { return fmt.Sprintf("%.2f", sec*1000) }

func yesno(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
