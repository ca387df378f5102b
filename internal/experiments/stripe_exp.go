package experiments

import (
	"errors"
	"fmt"

	"mmfs/internal/alloc"
	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/fault"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/strand"
)

// stripeCyl is the striping unit for EXP-STRIPE: one tenth of the
// default geometry, the same value core.Options picks by default.
const stripeCyl = 120

// recordOn writes a video strand whose blocks all land on the given
// spindle of a striped array, starting at the given spindle-local
// cylinder (stripe-group aligned placement, as the allocator would do
// for -disks p).
func (r *rig) recordOn(spindle, localCyl, frames int, seed int64) *strand.Strand {
	start := localCyl // one spindle: its cylinders are the disk's
	if arr := r.fs.Array(); arr != nil {
		stripe := arr.StripeCylinders()
		start = arr.GroupStart(spindle, localCyl/stripe) + localCyl%stripe
	}
	return r.recordAt(start, spindle, frames, seed)
}

// recordAt writes a video strand from logical cylinder start and checks
// that every block of it is read from the one spindle the caller aimed
// for.
func (r *rig) recordAt(start, spindle, frames int, seed int64) *strand.Strand {
	s := r.record(media.NewVideoSource(frames, frameBytes, 30, seed),
		take{q: 3, place: alloc.Constraint{MinCylinders: 1, MaxCylinders: 32}, start: start})
	arr := r.fs.Array()
	if arr == nil {
		return s // one spindle: there is nowhere else to land
	}
	for i := 0; i < s.NumBlocks(); i++ {
		e, berr := s.Block(i)
		if berr != nil {
			panic(berr)
		}
		if sp, one := arr.SpindleRange(int(e.Sector), int(e.SectorCount)); !one || sp != spindle {
			panic(fmt.Sprintf("experiments: rig block %d on spindle %d, want %d", i, sp, spindle))
		}
	}
	return s
}

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
		r := formatRig(core.Options{Disks: p, Stripe: stripeCyl})
		adm := continuity.AdmissionFor(r.fs.Device())
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
		gate := r.trial(r.plan(1, 16))
		if _, err := gate.admit(strands...); err != nil && !errors.Is(err, msm.ErrAdmissionRejected) {
			panic(err)
		}
		admitted := len(gate.ids)
		extra := r.recordOn(0, nmax*stripeCyl, 300, seedBase+int64(7900+p))
		if _, err := gate.admit(extra); !errors.Is(err, msm.ErrAdmissionRejected) {
			panic(fmt.Sprintf("experiments: EXP-STRIPE p=%d: stream %d should exceed the spindle's n_max, got %v", p, total, err))
		}

		// Service run on a stepwise manager: parallel sub-rounds join
		// every round, every stream completes violation-free.
		t := r.trial(r.plan(1, 16))
		if _, err := t.admit(strands...); err != nil {
			panic(fmt.Sprintf("experiments: EXP-STRIPE p=%d stream %d: %v", p, len(t.ids), err))
		}
		c := t.run()
		st := t.mgr.Stats()
		res.AddRow(fmt.Sprintf("p=%d", p), fmt.Sprint(nmax), fmt.Sprint(total),
			fmt.Sprint(admitted), fmt.Sprint(c.completed), fmt.Sprint(c.late),
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
	r := formatRig(core.Options{
		Disks: 4, Stripe: stripeCyl,
		Fault: fault.Scenario{Seed: 42 + seedBase, ReadErrorRate: 1}, FaultSpindle: sick,
	})
	t := r.trial(r.plan(1, 16))
	for sp := 0; sp < 4; sp++ {
		if _, err := t.admit(r.recordOn(sp, 0, 150, seedBase+int64(8400+sp))); err != nil {
			panic(err)
		}
	}
	c := t.run()
	healthyLate, healthyDeg, healthyDone := 0, 0, 0
	for sp, id := range t.ids {
		if sp == sick {
			continue
		}
		pr, err := t.mgr.Progress(id)
		if err != nil {
			panic(err)
		}
		healthyDeg += pr.DegradedBlocks
		healthyLate += pr.Violations
		if pr.Done && pr.BlocksServed == pr.BlocksTotal {
			healthyDone++
		}
	}
	st := t.mgr.Stats()
	res.AddRow("p=4, spindle 1 dead", "1/sp", "4", "4", fmt.Sprint(c.completed),
		fmt.Sprint(healthyLate), fmt.Sprint(st.DegradedBlocks), fmt.Sprint(st.FaultStops))
	if healthyDeg != 0 || healthyDone != 3 {
		panic(fmt.Sprintf("experiments: EXP-STRIPE chaos: healthy spindles disturbed (degraded=%d done=%d/3)", healthyDeg, healthyDone))
	}

	res.Note("array of p spindles, cylinder-group striping (%d-cylinder groups); each round runs one sub-round per spindle concurrently, in arrival order, and joins before the round closes", stripeCyl)
	res.Note("admission charges each stream to the spindle holding its blocks, so the aggregate bound is p·n_max (Eq. 17 per spindle); the (p·n_max+1)-th stream on a full spindle is rejected")
	res.Note("chaos row: every read on spindle 1 fails — its stream zero-fills then stops, while the 3 healthy spindles' streams complete with zero violations and zero degraded blocks")
	res.Note("extension beyond the paper: Rangan & Vin model a single disk; striping generalises merging (§4) across spindles the way their §6 remarks anticipate for disk arrays")
	return res
}
