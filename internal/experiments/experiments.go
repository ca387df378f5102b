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
	"errors"
	"fmt"
	"io"
	"strings"

	"mmfs/internal/alloc"
	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/layout"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
	"mmfs/internal/simtest"
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

// catalogue is every experiment in DESIGN.md order under its short name
// (the -exp flag of cmd/mmexperiments): the one list All, IDs and ByID
// read.
var catalogue = []struct {
	id  string
	run func() Result
}{
	{"f4", F4},
	{"e1", E1Sequential},
	{"e2", E2Pipelined},
	{"e3", E3Concurrent},
	{"e46", E46MixedMedia},
	{"nmax", NMax},
	{"trans", Transition},
	{"edit", EditCopy},
	{"ra", ReadAhead},
	{"sil", Silence},
	{"hdtv", HDTV},
	{"ff", FastForward},
	{"vbr", VBR},
	{"scan", Scan},
	{"reorg", Reorg},
	{"ic", IntervalCache},
	{"ft", FaultTolerance},
	{"stripe", Stripe},
	{"qos", QoS},
	{"rebuild", Rebuild},
}

// All runs every experiment in DESIGN.md order.
func All() []Result {
	out := make([]Result, len(catalogue))
	for i, e := range catalogue {
		out[i] = e.run()
	}
	return out
}

// IDs lists the experiments' short names in DESIGN.md order.
func IDs() []string {
	ids := make([]string, len(catalogue))
	for i, e := range catalogue {
		ids[i] = e.id
	}
	return ids
}

// ByID looks an experiment runner up by its short name.
func ByID(id string) (func() Result, bool) {
	for _, e := range catalogue {
		if e.id == strings.ToLower(id) {
			return e.run, true
		}
	}
	return nil, false
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

// population is n streams of one request template: the population
// whose Eq. 16–18 ks the admission experiments evaluate.
func population(tmpl continuity.Request, n int) []continuity.Request {
	reqs := make([]continuity.Request, n)
	for i := range reqs {
		reqs[i] = tmpl
	}
	return reqs
}

// kFor is Eq. 18's k for n streams of tmpl.
func kFor(adm continuity.Admission, tmpl continuity.Request, n int) int {
	k, ok := adm.KTransient(population(tmpl, n))
	if !ok {
		panic(fmt.Sprintf("experiments: no feasible k for %d streams", n))
	}
	return k
}

// rig is the experimental file system every table runs on: a core.FS
// formatted from the table's options — one disk, or an array of
// opts.Disks spindles — whose storage managers the experiments drive
// by hand.
type rig struct {
	fs *core.FS
}

// check ends a trial that ran rounds or wrote: it asks the file system's
// state oracles (simtest.Check), which move nothing, and panics on a
// finding, as the tables do on any other error.
func check(fs *core.FS) {
	if err := simtest.Check(fs); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}

// newRig formats the default file system: one disk of the default
// geometry.
func newRig() *rig { return formatRig(core.Options{}) }

func formatRig(opts core.Options) *rig {
	fs, err := core.Format(opts)
	if err != nil {
		panic(err)
	}
	return &rig{fs: fs}
}

// scattering is the placement policy's scattering: what the tables'
// plans declare to admission control.
func (r *rig) scattering() float64 { return r.fs.TargetScattering() }

// plan is a play plan's shape for the rig: read-ahead and buffers in
// blocks, the placement policy's scattering.
func (r *rig) plan(readAhead, buffers int) msm.PlanOptions {
	return msm.PlanOptions{ReadAhead: readAhead, Buffers: buffers, Scattering: r.scattering()}
}

// frameBytes is the experiment video frame size (18 KB ≈ 8:1
// compressed NTSC).
const frameBytes = 18000

// recordVideoRope records a video-only clip of the given length through
// the file system's RECORD path and returns the rope and its strand.
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
	check(r.fs)
	s := r.fs.Strands().MustGet(rp.Intervals[0].Video.Strand)
	return rp, s
}

// take is where the recorder lays a video strand down.
type take struct {
	q     int              // frames a block
	place alloc.Constraint // successive-block placement
	start int              // the first block's cylinder hint
	// untilFull ends the strand at the first block the placement finds
	// no room for; otherwise running out of room is a bug.
	untilFull bool
}

// record is the one recorder for strands the RECORD path would not
// lay down: it drains src into a video strand placed as t says,
// bypassing the storage manager, and registers it.
func (r *rig) record(src media.Source, t take) *strand.Strand {
	w, err := strand.NewWriter(r.fs.Disk(), r.fs.Allocator(), strand.WriterConfig{
		ID:            r.fs.Strands().NewID(),
		Medium:        layout.Video,
		Rate:          src.Rate(),
		UnitBytes:     src.UnitBytes(),
		Granularity:   t.q,
		Variable:      media.IsVariable(src),
		Constraint:    t.place,
		StartCylinder: t.start,
	})
	if err != nil {
		panic(err)
	}
	for u, ok := src.Next(); ok; u, ok = src.Next() {
		if _, err := w.Append(u); err != nil {
			if t.untilFull && errors.Is(err, alloc.ErrNoSpace) {
				break
			}
			panic(err)
		}
	}
	s, err := w.Close()
	if err != nil {
		panic(err)
	}
	r.fs.Strands().Put(s)
	return s
}

// trial is the one admit-and-run driver: plays planned from strands
// with opts, compiled for dev and admitted on mgr in order, over fs.
type trial struct {
	fs   *core.FS
	mgr  *msm.Manager
	dev  disk.Device
	opts msm.PlanOptions
	// hold, when positive, is the k re-forced after every admission.
	hold int
	ids  []msm.RequestID
}

// trial starts a driver on a fresh storage manager of the file system.
func (r *rig) trial(opts msm.PlanOptions) *trial {
	return &trial{fs: r.fs, mgr: r.fs.NewManager(), dev: r.fs.Disk(), opts: opts}
}

// pin services the trial at k: no stepwise transition, and every
// admission lands at virtual time zero under the k being probed.
func (t *trial) pin(k int) {
	t.mgr.SetPolicy(msm.NaiveJump)
	t.mgr.ForceK(k)
	t.hold = k
}

// admit plans and admits each strand in turn, stopping at the first
// error, which it returns; every admitted request joins t.ids. The
// decision is the last strand's.
func (t *trial) admit(strands ...*strand.Strand) (continuity.Decision, error) {
	var dec continuity.Decision
	for _, s := range strands {
		plan, err := msm.PlanStrandPlay(t.dev, s, t.opts)
		if err != nil {
			panic(err)
		}
		var id msm.RequestID
		if id, dec, err = t.mgr.AdmitPlay(plan); err != nil {
			return dec, err
		}
		t.ids = append(t.ids, id)
		if t.hold > 0 {
			t.mgr.ForceK(t.hold)
		}
	}
	return dec, nil
}

// run services every admitted play to the end, asks the oracles and
// tallies the plays.
func (t *trial) run() count {
	t.mgr.RunUntilDone()
	check(t.fs)
	return tally(t.mgr, t.ids)
}

// count is what a trial's plays came to.
type count struct {
	completed  int // played every block
	late       int // CauseLate violations
	violations int // violations of every cause
}

// tally counts completed plays and violations across ids.
func tally(mgr *msm.Manager, ids []msm.RequestID) count {
	var c count
	for _, id := range ids {
		pr, err := mgr.Progress(id)
		if err != nil {
			panic(err)
		}
		if pr.Done && pr.BlocksServed == pr.BlocksTotal {
			c.completed++
		}
		v, err := mgr.Violations(id)
		if err != nil {
			panic(err)
		}
		c.violations += len(v)
		for _, viol := range v {
			if viol.Cause == msm.CauseLate {
				c.late++
			}
		}
	}
	return c
}

// playStrands plays the strands together with the given read-ahead and
// buffers on a fresh manager, at k pinned when k > 0 (else admission's
// own), and returns the total violations — -1 when admission rejects
// one — and the manager.
func (r *rig) playStrands(strands []*strand.Strand, readAhead, buffers, k int) (int, *msm.Manager) {
	t := r.trial(r.plan(readAhead, buffers))
	if k > 0 {
		t.pin(k)
	}
	if _, err := t.admit(strands...); err != nil {
		return -1, t.mgr
	}
	return t.run().violations, t.mgr
}

// ms formats seconds as milliseconds.
func ms(sec float64) string { return fmt.Sprintf("%.2f", sec*1000) }

func yesno(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
