package experiments

import (
	"errors"
	"fmt"

	"mmfs/internal/alloc"
	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/layout"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/strand"
)

// stripeCyl is the striping unit for EXP-STRIPE: one tenth of the
// default geometry, the same value core.Options picks by default.
const stripeCyl = 120

// arrayRig is a hand-driven store for the experiments that run their
// own storage managers: the device core.NewStore builds from the
// options (p spindles striped by opts.Stripe cylinders, paired when
// opts.Mirror is set, spindle opts.FaultSpindle fault-wrapped when the
// scenario is active), with the allocator and strand store working in
// its logical address space. arr is nil on a single spindle.
type arrayRig struct {
	d      disk.Device
	arr    *disk.Array
	a      *alloc.Allocator
	st     *strand.Store
	dev    continuity.Device
	p      int
	stripe int
}

func newArrayRig(opts core.Options) *arrayRig {
	d, _, err := core.NewStore(opts)
	if err != nil {
		panic(err)
	}
	lg := d.Geometry()
	a, err := alloc.New(lg, 64)
	if err != nil {
		panic(err)
	}
	arr, _ := d.(*disk.Array)
	return &arrayRig{
		d: d, arr: arr, a: a,
		st:     strand.NewStore(d, a),
		dev:    msm.DeviceFor(lg),
		p:      opts.Disks,
		stripe: opts.Stripe,
	}
}

func (r *arrayRig) scattering() float64 {
	return continuity.Seconds(r.d.Geometry().AccessTime(32))
}

// recordOn writes a video strand whose blocks all land on the given
// spindle of a striped array, starting at the given spindle-local
// cylinder (stripe-group aligned placement, as the allocator would do
// for -disks p).
func (r *arrayRig) recordOn(spindle, localCyl, frames int, seed int64) *strand.Strand {
	start := (localCyl/r.stripe*r.p+spindle)*r.stripe + localCyl%r.stripe
	return r.record(start, spindle, frames, seed)
}

// record writes a video strand from logical cylinder start and checks
// that every block of it is read from the one spindle the caller aimed
// for.
func (r *arrayRig) record(start, spindle, frames int, seed int64) *strand.Strand {
	w, err := strand.NewWriter(r.d, r.a, strand.WriterConfig{
		ID:            r.st.NewID(),
		Medium:        layout.Video,
		Rate:          30,
		UnitBytes:     frameBytes,
		Granularity:   3,
		Constraint:    alloc.Constraint{MinCylinders: 1, MaxCylinders: 32},
		StartCylinder: start,
	})
	if err != nil {
		panic(err)
	}
	src := media.NewVideoSource(frames, frameBytes, 30, seed)
	for {
		u, ok := src.Next()
		if !ok {
			break
		}
		if _, err := w.Append(u); err != nil {
			panic(err)
		}
	}
	s, err := w.Close()
	if err != nil {
		panic(err)
	}
	r.st.Put(s)
	if r.arr == nil {
		return s // one spindle: there is nowhere else to land
	}
	for i := 0; i < s.NumBlocks(); i++ {
		e, berr := s.Block(i)
		if berr != nil {
			panic(berr)
		}
		if sp, one := r.arr.SpindleRange(int(e.Sector), int(e.SectorCount)); !one || sp != spindle {
			panic(fmt.Sprintf("experiments: rig block %d on spindle %d, want %d", i, sp, spindle))
		}
	}
	return s
}

// plan compiles a strand's play plan; opts carries everything but the
// rig's scattering.
func (r *arrayRig) plan(s *strand.Strand, opts msm.PlanOptions) msm.PlayPlan {
	opts.Scattering = r.scattering()
	plan, err := msm.PlanStrandPlay(r.d, s, opts)
	if err != nil {
		panic(err)
	}
	return plan
}

// stripePlan is EXP-STRIPE's per-stream plan shape.
var stripePlan = msm.PlanOptions{ReadAhead: 1, Buffers: 16}

// Stripe drives EXP-STRIPE: a p-spindle cylinder-group-striped array
// services one concurrent sub-round per spindle each round, with
// Eq. 18 admission evaluated per spindle — so the admissible
// population scales as p·n_max while every stream stays
// violation-free. A final chaos row degrades one spindle and shows
// the damage confined to that spindle's streams.
func Stripe() Result {
	res := Result{
		ID:      "EXP-STRIPE",
		Title:   "Striped array: per-spindle admission scales n_max by the degree p",
		Headers: []string{"config", "n_max/sp", "streams", "admitted", "completed", "late viol", "degraded", "stops"},
	}

	template := continuity.Request{
		Name: "video", Granularity: 3, UnitBits: frameBytes * 8, Rate: 30,
	}

	// Scaling rows: saturate every spindle with its own n_max streams
	// (10 s strands, stripe-group aligned) and play them all.
	base := 0
	for _, p := range []int{1, 2, 4} {
		r := newArrayRig(core.Options{Disks: p, Stripe: stripeCyl})
		adm := continuity.AdmissionFor(r.dev)
		tmpl := template
		tmpl.Scattering = r.scattering()
		nmax := adm.NMax(tmpl)
		total := p * nmax

		strands := make([]*strand.Strand, total)
		for j := range strands {
			strands[j] = r.recordOn(j%p, (j/p)*stripeCyl, 300, seedBase+int64(7000+100*p+j))
		}

		// Admission math on a gate manager, which runs no rounds: all
		// p·n_max streams pass their per-spindle Eq. 18, and one more on a
		// saturated spindle is rejected.
		gate := msm.New(r.d, adm)
		admitted := 0
		for _, s := range strands {
			if _, _, err := gate.AdmitPlay(r.plan(s, stripePlan)); err != nil {
				break
			}
			admitted++
		}
		extra := r.recordOn(0, nmax*stripeCyl, 300, seedBase+int64(7900+p))
		if _, _, err := gate.AdmitPlay(r.plan(extra, stripePlan)); !errors.Is(err, msm.ErrAdmissionRejected) {
			panic(fmt.Sprintf("experiments: EXP-STRIPE p=%d: stream %d should exceed the spindle's n_max, got %v", p, total, err))
		}

		// Service run on a stepwise manager: parallel sub-rounds join
		// every round, every stream completes violation-free.
		mgr := msm.New(r.d, adm)
		ids := make([]msm.RequestID, 0, total)
		for j, s := range strands {
			id, _, err := mgr.AdmitPlay(r.plan(s, stripePlan))
			if err != nil {
				panic(fmt.Sprintf("experiments: EXP-STRIPE p=%d stream %d: %v", p, j, err))
			}
			ids = append(ids, id)
		}
		mgr.RunUntilDone()
		completed, late := tally(mgr, ids)
		st := mgr.Stats()
		res.AddRow(fmt.Sprintf("p=%d", p), fmt.Sprint(nmax), fmt.Sprint(total),
			fmt.Sprint(admitted), fmt.Sprint(completed), fmt.Sprint(late),
			fmt.Sprint(st.DegradedBlocks), fmt.Sprint(st.FaultStops))
		if p == 1 {
			base = admitted
		} else if base > 0 {
			res.Note("p=%d admits %.2f× the single-spindle population (ideal %d×)", p, float64(admitted)/float64(base), p)
		}
	}

	// Chaos row: spindle 1 of four fails every read. Its streams ride
	// the degradation ladder (zero-fill, then an escalation stop); the
	// other spindles' sub-rounds never see the faults.
	const sick = 1
	r := newArrayRig(core.Options{
		Disks: 4, Stripe: stripeCyl,
		Fault: fault.Scenario{Seed: 42 + seedBase, ReadErrorRate: 1}, FaultSpindle: sick,
	})
	adm := continuity.AdmissionFor(r.dev)
	mgr := msm.New(r.d, adm)
	ids := make([]msm.RequestID, 4)
	for sp := 0; sp < 4; sp++ {
		s := r.recordOn(sp, 0, 150, seedBase+int64(8400+sp))
		var err error
		if ids[sp], _, err = mgr.AdmitPlay(r.plan(s, stripePlan)); err != nil {
			panic(err)
		}
	}
	mgr.RunUntilDone()
	healthyLate, healthyDeg, healthyDone := 0, 0, 0
	for sp, id := range ids {
		if sp == sick {
			continue
		}
		pr, err := mgr.Progress(id)
		if err != nil {
			panic(err)
		}
		healthyDeg += pr.DegradedBlocks
		healthyLate += pr.Violations
		if pr.Done && pr.BlocksServed == pr.BlocksTotal {
			healthyDone++
		}
	}
	st := mgr.Stats()
	completed, _ := tally(mgr, ids)
	res.AddRow("p=4, spindle 1 dead", "1/sp", "4", "4", fmt.Sprint(completed),
		fmt.Sprint(healthyLate), fmt.Sprint(st.DegradedBlocks), fmt.Sprint(st.FaultStops))
	if healthyDeg != 0 || healthyDone != 3 {
		panic(fmt.Sprintf("experiments: EXP-STRIPE chaos: healthy spindles disturbed (degraded=%d done=%d/3)", healthyDeg, healthyDone))
	}

	res.Note("array of p spindles, cylinder-group striping (%d-cylinder groups); each round runs one C-SCAN sub-round per spindle concurrently and joins before the round closes", stripeCyl)
	res.Note("admission charges each stream to the spindle holding its blocks, so the aggregate bound is p·n_max (Eq. 17 per spindle); the (p·n_max+1)-th stream on a full spindle is rejected")
	res.Note("chaos row: every read on spindle 1 fails — its stream zero-fills then stops, while the 3 healthy spindles' streams complete with zero violations and zero degraded blocks")
	res.Note("extension beyond the paper: Rangan & Vin model a single disk; striping generalises merging (§4) across spindles the way their §6 remarks anticipate for disk arrays")
	return res
}

// tally counts completed streams and late violations across ids.
func tally(mgr *msm.Manager, ids []msm.RequestID) (completed, late int) {
	for _, id := range ids {
		pr, err := mgr.Progress(id)
		if err != nil {
			panic(err)
		}
		if pr.Done && pr.BlocksServed == pr.BlocksTotal {
			completed++
		}
		v, err := mgr.Violations(id)
		if err != nil {
			panic(err)
		}
		for _, viol := range v {
			if viol.Cause == msm.CauseLate {
				late++
			}
		}
	}
	return completed, late
}
