package experiments

import (
	"errors"
	"fmt"

	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/msm"
	"mmfs/internal/strand"
)

// rebuildStripeCyl is EXP-REBUILD's striping unit. Smaller than
// EXP-STRIPE's so the mirrored (half-capacity) array still offers
// enough stripe-group slots per preferred spindle for a full n_max
// admission probe.
const rebuildStripeCyl = 60

// rebuildPlan is EXP-REBUILD's per-stream plan shape.
func (r *rig) rebuildPlan(class continuity.Class) msm.PlanOptions {
	opts := r.plan(1, 64)
	opts.Class = class
	return opts
}

// probeAdmission counts how many of the probe strands a fresh
// admission-only manager accepts against the array's current steering
// (admitting runs no service round, so the fault clock and the virtual
// clock stay untouched).
func (r *rig) probeAdmission(probes []*strand.Strand) int {
	gate := r.trial(r.rebuildPlan(continuity.Standard))
	for _, s := range probes {
		if _, err := gate.admit(s); err != nil && !errors.Is(err, msm.ErrAdmissionRejected) {
			panic(err)
		}
	}
	return len(gate.ids)
}

// Rebuild drives EXP-REBUILD: a 4-spindle mirrored array survives a
// whole-spindle loss. A scripted die=<round> kills one twin while all
// four spindles carry streams (premium everywhere except the victim);
// the surviving twin absorbs the dead spindle's stream after a bounded
// degraded burst, no stream is aborted, and the per-spindle Eq. 18
// admission shrinks to the surviving capacity. An online rebuild onto
// a replacement device then restores full redundancy and the full
// p·n_max admission bound.
func Rebuild() Result {
	res := Result{
		ID:      "EXP-REBUILD",
		Title:   "Mirrored array: whole-spindle loss, degraded service, online rebuild",
		Headers: []string{"phase", "n_max/sp", "streams", "admitted", "completed", "prem viol", "degraded", "stops", "chunks"},
	}

	const p, victim, dieRound = 4, 1, 6
	r := formatRig(core.Options{
		Disks: p, Stripe: rebuildStripeCyl, Mirror: true,
		Fault: fault.Scenario{Seed: 42 + seedBase, DieRound: dieRound}, FaultSpindle: victim,
	})
	adm := continuity.AdmissionFor(r.fs.Device())
	arr := r.fs.Array()
	tmpl := continuity.Request{
		Name: "video", Granularity: 3, UnitBits: frameBytes * 8, Rate: 30,
		Scattering: r.scattering(),
	}
	nmax := adm.NMax(tmpl)
	slots := arr.Geometry().Cylinders / rebuildStripeCyl / p // groups per preferred spindle
	if nmax > slots {
		panic(fmt.Sprintf("experiments: EXP-REBUILD needs %d stripe-group slots per spindle, have %d", nmax, slots))
	}

	// One 5 s probe strand per (spindle, slot): the admission
	// population that exactly saturates every spindle's Eq. 17 bound.
	probes := make([]*strand.Strand, 0, p*nmax)
	for within := 0; within < nmax; within++ {
		for sp := 0; sp < p; sp++ {
			probes = append(probes, r.recordAt(arr.GroupStart(sp, within), sp, 150, seedBase+int64(9600+100*within+sp)))
		}
	}

	// Phase 1 — healthy: all p·n_max probes admitted, one more on a
	// saturated spindle rejected.
	healthy := r.probeAdmission(probes)
	if healthy != p*nmax {
		panic(fmt.Sprintf("experiments: EXP-REBUILD healthy array admitted %d, want p·n_max = %d", healthy, p*nmax))
	}
	over := r.probeAdmission(append(append([]*strand.Strand{}, probes...), probes[0]))
	if over != p*nmax {
		panic(fmt.Sprintf("experiments: EXP-REBUILD admitted %d past the p·n_max bound", over-p*nmax))
	}
	res.AddRow("healthy admission", fmt.Sprint(nmax), fmt.Sprint(p*nmax+1), fmt.Sprint(healthy), "-", "-", "-", "-", "-")

	// Phase 2 — die=6 service: one stream per spindle, premium
	// everywhere except the victim. The victim twin dies mid-run; its
	// stream must be re-steered to the survivor after a bounded
	// degraded burst, with zero premium violations and zero aborts.
	t := r.trial(msm.PlanOptions{})
	for sp := 0; sp < p; sp++ {
		class := continuity.Premium
		if sp == victim {
			class = continuity.Standard
		}
		t.opts = r.rebuildPlan(class)
		if _, err := t.admit(probes[sp]); err != nil {
			panic(err)
		}
	}
	completed := t.run().completed
	premViol, victimDeg := 0, 0
	for sp, id := range t.ids {
		pr, err := t.mgr.Progress(id)
		if err != nil {
			panic(err)
		}
		if sp == victim {
			victimDeg = pr.DegradedBlocks
		} else {
			premViol += pr.Violations
		}
	}
	mgr := t.mgr
	st := mgr.Stats()
	if completed != p || premViol != 0 || st.FaultStops != 0 {
		panic(fmt.Sprintf("experiments: EXP-REBUILD degraded service: completed=%d/%d premViol=%d stops=%d",
			completed, p, premViol, st.FaultStops))
	}
	if victimDeg == 0 {
		panic("experiments: EXP-REBUILD: the die scenario never fired")
	}
	if s := arr.SpindleState(victim); s == disk.Healthy {
		panic(fmt.Sprintf("experiments: EXP-REBUILD victim still %v after dying", s))
	}
	res.AddRow(fmt.Sprintf("die=%d service", dieRound), fmt.Sprint(nmax), fmt.Sprint(p),
		"-", fmt.Sprint(completed), fmt.Sprint(premViol), fmt.Sprint(victimDeg), fmt.Sprint(st.FaultStops), "-")

	// Phase 3 — degraded admission: the operator declares the suspect
	// drive dead (the health machine may converge at Suspect when the
	// steering routes reads away before enough strikes accumulate —
	// the same convention Manager.Rebuild accepts). Every slot of the
	// pair then charges the surviving twin's lane, so the pair admits
	// n_max instead of 2·n_max and the array bound drops to
	// (p-1)·n_max.
	arr.SetSpindleState(victim, disk.Dead)
	arr.RefreshSteering()
	degraded := r.probeAdmission(probes)
	if degraded != (p-1)*nmax {
		panic(fmt.Sprintf("experiments: EXP-REBUILD degraded array admitted %d, want (p-1)·n_max = %d", degraded, (p-1)*nmax))
	}
	res.AddRow("degraded admission", fmt.Sprint(nmax), fmt.Sprint(p*nmax), fmt.Sprint(degraded), "-", "-", "-", "-", "-")

	// Phase 4 — online rebuild: replace the dead device, copy the
	// twin's cylinders in otherwise idle rounds, return to Healthy.
	if err := mgr.Rebuild(victim); err != nil {
		panic(err)
	}
	mgr.RunUntilDone()
	check(r.fs)
	if mgr.RepairActive() {
		done, total := mgr.RepairProgress()
		panic(fmt.Sprintf("experiments: EXP-REBUILD rebuild stalled at %d/%d", done, total))
	}
	if got := arr.SpindleState(victim); got != disk.Healthy {
		panic(fmt.Sprintf("experiments: EXP-REBUILD rebuilt spindle state %v", got))
	}
	chunks := mgr.Stats().RebuildBlocks
	if chunks == 0 {
		panic("experiments: EXP-REBUILD rebuild copied no chunks")
	}
	res.AddRow("online rebuild", fmt.Sprint(nmax), "-", "-", "-", "-", "-", "-", fmt.Sprint(chunks))

	// Phase 5 — rebuilt: steering rebalances, the replacement serves
	// the victim stream's replay cleanly, and admission returns to the
	// full p·n_max bound.
	arr.RefreshSteering()
	t.opts = r.rebuildPlan(continuity.Premium)
	if _, err := t.admit(probes[victim]); err != nil {
		panic(err)
	}
	mgr.RunUntilDone()
	check(r.fs)
	pr, err := mgr.Progress(t.ids[len(t.ids)-1])
	if err != nil {
		panic(err)
	}
	if !pr.Done || pr.Violations != 0 || pr.DegradedBlocks != 0 {
		panic(fmt.Sprintf("experiments: EXP-REBUILD post-rebuild replay: done=%v viol=%d degraded=%d",
			pr.Done, pr.Violations, pr.DegradedBlocks))
	}
	rebuilt := r.probeAdmission(probes)
	if rebuilt != p*nmax {
		panic(fmt.Sprintf("experiments: EXP-REBUILD rebuilt array admitted %d, want p·n_max = %d", rebuilt, p*nmax))
	}
	res.AddRow("rebuilt admission+replay", fmt.Sprint(nmax), fmt.Sprint(p*nmax), fmt.Sprint(rebuilt),
		"1", fmt.Sprint(pr.Violations), fmt.Sprint(pr.DegradedBlocks), "-", "-")

	res.Note("mirrored array of %d spindles in %d pairs, %d-cylinder stripe groups; capacity halves, every write is duplicated onto both twins", p, p/2, rebuildStripeCyl)
	res.Note("a scripted die=%d kills spindle %d mid-run: the health machine converges within a bounded burst (%d degraded blocks) and steering re-routes its streams to the twin — zero aborts, zero premium violations", dieRound, victim, victimDeg)
	res.Note("per-spindle Eq. 18 admission follows the steering: the dead twin's slots charge the survivor, shrinking the array bound from p·n_max=%d to (p-1)·n_max=%d, and the online rebuild (%d chunks in round slack) restores it", p*nmax, (p-1)*nmax, chunks)
	res.Note("extension beyond the paper: Rangan & Vin assume fail-stop storage; mirrored pairs + degraded steering + slack-charged rebuild keep their continuity guarantees across a whole-spindle loss")
	return res
}
