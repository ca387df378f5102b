package experiments

import (
	"fmt"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/msm"
)

// IntervalCache measures the interval-caching extension: trailing
// plays of a rope are fed from the blocks their leader just fetched,
// so they charge no disk time and admission control (the modified
// Eq. 18, evaluated over the disk-bound population only) can accept
// more concurrent plays than Eq. 17's n_max. The experiment sweeps the
// cache size and admits n_max + 3 staggered plays of one rope.
func IntervalCache() Result {
	res := Result{
		ID:      "EXP-IC",
		Title:   "Interval caching: concurrent plays of one rope vs cache size",
		Headers: []string{"cache (MiB)", "admitted", "disk-bound", "cache-served", "rejected", "violations", "demotions", "cache hit %"},
	}
	adm := continuity.AdmissionFor(stdDevice())
	tmpl := cachePlanRequest()
	nmax := adm.NMax(tmpl)
	k := kFor(adm, tmpl, nmax)
	// n_max + 2 attempts: rounds are atomic, so each stagger step can
	// advance several seconds of virtual time; more attempts than this
	// and the earliest plays finish (freeing admission slots) before
	// the last attempt, muddying the rejection count.
	attempts := nmax + 2

	for _, mb := range []int{0, 1, 4, 16} {
		r := formatRig(core.Options{CacheMB: mb})
		_, s := r.recordVideoRope(20, 4100+int64(mb))
		t := r.trial(r.plan(2, 4))
		// Pin k at the saturated population's Eq. 18 value so every
		// admission is step-free and the population stays concurrent.
		t.mgr.ForceK(k)
		cached, rejected := 0, 0
		for i := 0; i < attempts; i++ {
			if dec, err := t.admit(s); err != nil {
				rejected++
			} else if dec.CacheServed {
				cached++
			}
			t.mgr.RunFor(400 * time.Millisecond)
		}
		admitted := len(t.ids)
		diskBound := t.mgr.ActiveRequests()
		violations := t.run().violations
		st := t.mgr.Stats()
		hitPct := 0.0
		if st.BlocksFetched > 0 {
			hitPct = 100 * float64(st.CacheHits) / float64(st.BlocksFetched)
		}
		res.AddRow(fmt.Sprint(mb), fmt.Sprint(admitted), fmt.Sprint(diskBound),
			fmt.Sprint(cached), fmt.Sprint(rejected), fmt.Sprint(violations),
			fmt.Sprint(st.Demotions), fmt.Sprintf("%.0f", hitPct))
	}

	res.Note("device n_max = %d (Eq. 17), k = %d (Eq. 18); %d staggered plays of one 20 s rope attempted per row", nmax, k, attempts)
	res.Note("cache-served followers charge no α/β terms: admission tests n_d·α + n_d·k·β ≤ k·γ over the disk-bound population only, so n > n_max plays run violation-free")
	res.Note("a cache smaller than the leader→follower gap admits nothing extra (the gap is not resident), and a marginal one admits followers that are later demoted back to disk service — still violation-free")
	res.Note("extension beyond the paper (interval caching à la Dan & Sitaram): the paper's admission control alone refuses every play past n_max")
	return res
}

// cachePlanRequest is the admission description an EXP-IC play plan
// actually carries, derived by planning a short rope: n_max must be
// computed against this, not a hand-built template, or the sweep's
// rejection point drifts off the plays being admitted.
func cachePlanRequest() continuity.Request {
	r := newRig()
	_, s := r.recordVideoRope(2, 4099)
	plan, err := msm.PlanStrandPlay(r.fs.Disk(), s, r.plan(2, 4))
	if err != nil {
		panic(err)
	}
	return plan.Admission
}
