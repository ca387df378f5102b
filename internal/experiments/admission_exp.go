package experiments

import (
	"fmt"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/msm"
	"mmfs/internal/strand"
)

// NMax regenerates Eq. 17 across a device-speed sweep: the maximum
// number of simultaneous NTSC-rate requests n_max = ⌈γ/β⌉ − 1, and
// validates on the default device that n_max streams play clean while
// the (n_max+1)-th request is refused by admission control.
func NMax() Result {
	res := Result{
		ID:      "EXP-N17",
		Title:   "Maximum simultaneous requests (Eq. 17) across device speeds",
		Headers: []string{"device", "r_dt (Mbit/s)", "β (ms)", "γ (ms)", "n_max"},
	}
	type devCase struct {
		name string
		g    disk.Geometry
	}
	slow := disk.DefaultGeometry()
	slow.RPM = 2400
	slow.SectorsPerTrack = 40
	fast := disk.DefaultGeometry()
	fast.RPM = 5400
	fast.SectorsPerTrack = 84
	fast.MinSeek = time.Millisecond
	fast.MaxSeek = 18 * time.Millisecond
	cases := []devCase{
		{"slow (2400 RPM)", slow},
		{"default (3600 RPM)", disk.DefaultGeometry()},
		{"fast (5400 RPM)", fast},
	}
	const q = 3
	for _, c := range cases {
		dev := msm.DeviceFor(c.g)
		adm := continuity.AdmissionFor(dev)
		m := ntsc()
		tmpl := continuity.Request{
			Name:        "video",
			Granularity: q,
			UnitBits:    m.UnitBits,
			Rate:        m.Rate,
			Scattering:  continuity.Seconds(c.g.AccessTime(32)),
		}
		reqs := []continuity.Request{tmpl}
		res.AddRow(c.name,
			fmt.Sprintf("%.1f", dev.TransferRate/1e6),
			ms(adm.Beta(reqs)),
			ms(adm.Gamma(reqs)),
			fmt.Sprint(adm.NMax(tmpl)))
	}

	// Validation on the default device: provision read-ahead and
	// buffers for the k the full population needs (Eq. 18).
	dev := stdDevice()
	adm := continuity.AdmissionFor(dev)
	tmpl := stdRequest(q)
	nmax := adm.NMax(tmpl)
	kFull := kFor(adm, tmpl, nmax)
	r := newRig()
	strands := make([]*strand.Strand, nmax+1)
	for i := range strands {
		_, strands[i] = r.recordVideoRope(15, int64(1700+i))
	}
	viol, mgr := r.playStrands(strands[:nmax], kFull, 2*kFull, 0)
	res.Note("default device, n = n_max = %d streams at k = %d: %d violations (expect 0)", nmax, mgr.K(), viol)

	dec := continuity.Admit(adm, [][]continuity.Request{population(tmpl, nmax)}, kFull, tmpl, continuity.Premium, 0, false)
	verdict := "accepted (BUG: expected rejection)"
	if !dec.Admitted {
		verdict = fmt.Sprintf("rejected (expect rejected): %s", dec.Reason)
	}
	res.Note("n = n_max+1 = %d streams: admission %s", nmax+1, verdict)
	res.Note("paper: n_max = ⌈γ/β⌉ − 1, pessimistic because every request switch is charged the worst-case seek")
	return res
}

// Transition regenerates §3.4's transition analysis. A population of
// n_max−1 streams reaches steady state at k_old; admitting the n_max-th
// stream requires k_new ≫ k_old. Jumping straight to k_new makes the
// first rounds longer than the k_old blocks the old streams have
// buffered ("the number of blocks available for display are those of
// the previous round, which is k_old"), starving the streams serviced
// late in the round. The paper's stepwise algorithm grows k by one
// per round under Eq. 18, building up exactly the buffer depth each
// longer round needs.
func Transition() Result {
	res := Result{
		ID:      "EXP-TR",
		Title:   "Transient continuity during admission (Eq. 18): stepwise vs naive k transition",
		Headers: []string{"policy", "k before", "k after", "transition steps", "violations"},
	}
	dev := stdDevice()
	adm := continuity.AdmissionFor(dev)
	tmpl := stdRequest(3)
	nmax := adm.NMax(tmpl)
	kOld, kNew := kFor(adm, tmpl, nmax-1), kFor(adm, tmpl, nmax)

	run := func(policy msm.TransitionPolicy) (steps uint64, violations int) {
		r := newRig()
		strands := make([]*strand.Strand, nmax)
		// The paper's scattered model: successive blocks of a strand
		// 1 to 32 cylinders apart, so every block pays a positioning and
		// the disk runs at the Eq. 18 limit the experiment is about.
		// Run-placed recordings would be read a cylinder's run at a time,
		// finishing rounds well inside the charge: then no k is too small.
		// 20 s a strand: a scattered block touches a cylinder page of its
		// own, so this holds what 40 s of run-placed video did.
		for i := range strands {
			strands[i] = r.recordStrandAtDistance(3, 1, 32, 200)
		}
		// Steady-state population at k_old, provisioned per §3.3.2
		// for the k in force.
		t := r.trial(r.plan(kOld, 2*kOld))
		t.mgr.SetPolicy(msm.Stepwise)
		if _, err := t.admit(strands[:nmax-1]...); err != nil {
			panic(err)
		}
		t.mgr.RunFor(2 * time.Second)
		stepsBefore := t.mgr.Stats().TransitionSteps

		// The MRS grants the larger buffer allocation that k_new
		// requires, then admits under the policy being tested.
		for _, id := range t.ids {
			if err := t.mgr.SetBuffers(id, 2*kNew); err != nil {
				panic(err)
			}
		}
		t.mgr.SetPolicy(policy)
		t.opts = r.plan(kNew, 2*kNew)
		if _, err := t.admit(strands[nmax-1]); err != nil {
			panic(err)
		}
		violations = t.run().violations
		return t.mgr.Stats().TransitionSteps - stepsBefore, violations
	}

	for _, c := range []struct {
		name   string
		policy msm.TransitionPolicy
	}{
		{"stepwise (Eq. 18)", msm.Stepwise},
		{"naive jump", msm.NaiveJump},
	} {
		steps, viol := run(c.policy)
		res.AddRow(c.name, fmt.Sprint(kOld), fmt.Sprint(kNew), fmt.Sprint(steps), fmt.Sprint(viol))
	}
	res.Note("paper: \"Equation (15) guarantees continuity only in steady state, and not during transitions\"; Eq. 18's stepwise growth \"guarantees both transient and steady state continuity\"")
	res.Note("the naive jump's violations all fall in the first rounds after admission, on the streams serviced last in the round")
	res.Note("strands recorded scattered, 1 to 32 cylinders a block (the paper's model): every block pays a positioning, so the disk works at the Eq. 18 limit")
	return res
}

// ReadAhead regenerates §3.3.2's buffering and read-ahead analysis in
// two parts. Part one is the provisioning rule: buffers and read-ahead
// per architecture for average-case continuity over k blocks
// (sequential k/k, pipelined 2k/k, p-concurrent pk/pk). Part two
// measures provisioning under load: a population of n streams at the
// Eq. 18 k, with each stream's buffers and read-ahead swept downward
// from the rule — under-provisioned streams starve while the disk is
// busy elsewhere in the round, exactly the jitter the anti-jitter
// read-ahead absorbs.
func ReadAhead() Result {
	res := Result{
		ID:      "EXP-RA",
		Title:   "Buffering and anti-jitter read-ahead (§3.3.2): provisioning vs violations",
		Headers: []string{"streams", "k (Eq.18)", "read-ahead", "buffers", "violations"},
	}
	dev := stdDevice()
	adm := continuity.AdmissionFor(dev)
	tmpl := stdRequest(3)
	n := adm.NMax(tmpl)
	k := kFor(adm, tmpl, n)

	r := newRig()
	strands := make([]*strand.Strand, n)
	for i := range strands {
		_, strands[i] = r.recordVideoRope(20, int64(3300+i))
	}
	for _, f := range []struct{ ra, buffers int }{
		{1, 2},
		{k / 4, k / 2},
		{k / 2, k},
		{k, 2 * k},
	} {
		ra, buffers := f.ra, f.buffers
		if ra < 1 {
			ra = 1
		}
		if buffers < 2 {
			buffers = 2
		}
		viol, _ := r.playStrands(strands, ra, buffers, k)
		res.AddRow(fmt.Sprint(n), fmt.Sprint(k), fmt.Sprint(ra), fmt.Sprint(buffers), fmt.Sprint(viol))
	}

	cfgs := []continuity.Config{
		{Arch: continuity.Sequential},
		{Arch: continuity.Pipelined},
		{Arch: continuity.Concurrent, P: 4},
	}
	for _, c := range cfgs {
		res.Note("%v architecture at k=%d: read-ahead %d blocks, %d buffers (§3.3.2)",
			c.Arch, k, c.ReadAhead(k), c.AvgBuffers(k))
	}
	h := continuity.SwitchReadAhead(dev.MaxAccess, 3, ntsc())
	res.Note("slow-motion/pause switch read-ahead h = ⌈l_max_seek · R/q⌉ = %d block(s) on this device; on a long-seek device (150 ms stroke) h = %d blocks",
		h, continuity.SwitchReadAhead(0.158, 1, ntsc()))
	res.Note("under-provisioned streams (buffers < 2k) cannot hold a round's worth of blocks and miss deadlines while the disk services the other n−1 streams")
	return res
}
