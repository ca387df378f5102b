package experiments

import (
	"fmt"

	"mmfs/internal/continuity"
	"mmfs/internal/strand"
)

// F4 regenerates Figure 4: the variation of the number of blocks per
// round k with respect to the number of concurrent requests n. For
// each n up to Eq. 17's n_max it reports the steady-state k of Eq. 16,
// the transient-safe k of Eq. 18, and the smallest k at which a full
// simulation of n concurrent streams on the disk model plays with zero
// continuity violations.
func F4() Result {
	res := Result{
		ID:      "EXP-F4",
		Title:   "k vs n (Figure 4): blocks per round needed for n concurrent requests",
		Headers: []string{"n", "k steady (Eq.16)", "k transient (Eq.18)", "k simulated (min)", "round time (ms)", "violations@k"},
	}
	dev := stdDevice()
	adm := continuity.AdmissionFor(dev)
	const q = 3
	tmpl := stdRequest(q)
	nmax := adm.NMax(tmpl)

	r := newRig()
	strands := make([]*strand.Strand, nmax)
	for i := range strands {
		_, strands[i] = r.recordVideoRope(20, int64(1000+i))
	}

	for n := 1; n <= nmax; n++ {
		reqs := population(tmpl, n)
		kSteady, okS := adm.KSteady(reqs)
		kTrans, okT := adm.KTransient(reqs)
		if !okS || !okT {
			res.AddRow(fmt.Sprint(n), "unserviceable", "unserviceable", "-", "-", "-")
			continue
		}
		// Search for the smallest simulated-feasible k.
		kSim := -1
		var lastViol int
		for k := 1; k <= kTrans+4; k++ {
			viol, _ := r.playStrands(strands[:n], k, 2*k, k)
			if viol == 0 {
				kSim = k
				lastViol = 0
				break
			}
			lastViol = viol
		}
		rt := adm.RoundTime(reqs, kTrans)
		res.AddRow(
			fmt.Sprint(n),
			fmt.Sprint(kSteady),
			fmt.Sprint(kTrans),
			fmt.Sprint(kSim),
			ms(rt),
			fmt.Sprint(lastViol),
		)
	}
	alpha := adm.Alpha([]continuity.Request{tmpl})
	beta := adm.Beta([]continuity.Request{tmpl})
	gamma := adm.Gamma([]continuity.Request{tmpl})
	res.Note("α=%.2fms β=%.2fms γ=%.2fms → n_max=⌈γ/β⌉−1=%d (Eq. 17)", alpha*1000, beta*1000, gamma*1000, nmax)
	res.Note("paper: k grows slowly for small n and rises steeply near n_max (Figure 4's hyperbolic shape)")
	res.Note("the round-time column is also the startup delay of a newly admitted request (\"larger the value of k, larger is the startup time\"), which is why the minimum k is desirable")
	res.Note("simulated k ≤ analytic k: the formulas assume the worst-case seek on every request switch (§6.2 calls the estimates pessimistic)")
	return res
}
