package experiments

import (
	"fmt"

	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/msm"
	"mmfs/internal/strand"
)

// FaultTolerance drives EXP-FT: a saturated admission set (n_max
// disk-bound streams) plays through seeded fault storms — transient
// read errors, latency spikes, and a grown media defect — and the
// storage manager's degradation ladder (in-round retry charged to
// Eq. 18's slack, zero-fill delivery, escalation stop) must keep every
// stream admitted to completion: zero aborted plays, a bounded number
// of degraded blocks, and no escalations at realistic error rates.
func FaultTolerance() Result {
	res := Result{
		ID:      "EXP-FT",
		Title:   "Fault storms: continuity-aware retry and graceful degradation",
		Headers: []string{"scenario", "streams", "completed", "stopped", "faults", "retries", "degraded", "late viol"},
	}
	adm := continuity.AdmissionFor(stdDevice())
	tmpl := cachePlanRequest()
	nmax := adm.NMax(tmpl)
	k := kFor(adm, tmpl, nmax)
	half := nmax / 2
	if half < 1 {
		half = 1
	}

	rows := []struct {
		spec    string // "" marks the grown-defect row, built per-strand
		streams int
	}{
		{"off", nmax},
		{fmt.Sprintf("seed=%d,readerr=0.02", 7+seedBase), nmax},
		{fmt.Sprintf("seed=%d,readerr=0.05,slow=0.05x3", 7+seedBase), nmax},
		{fmt.Sprintf("seed=%d,readerr=0.05", 7+seedBase), half}, // half load: Eq. 18 slack funds retries
		{"", nmax},
	}
	for rowIdx, row := range rows {
		r := newRig()
		strands := make([]*strand.Strand, row.streams)
		for i := range strands {
			_, strands[i] = r.recordVideoRope(10, seedBase+int64(6100+100*rowIdx+i))
		}
		var sc fault.Scenario
		var err error
		if row.spec == "" {
			// Grown defect: one sector pair inside stream 0's sixth
			// block persistently fails, so exactly that block degrades
			// (its run is re-read block by block; the block itself is
			// never retried).
			e, berr := strands[0].Block(5)
			if berr != nil {
				panic(berr)
			}
			sc = fault.Scenario{Seed: 7 + seedBase, BadSectors: []fault.SectorRange{{Start: int(e.Sector), Count: 2}}}
		} else if sc, err = fault.ParseScenario(row.spec); err != nil {
			panic(err)
		}
		// The storm wraps the recorded disk, under a manager of its own.
		fd := fault.New(r.fs.Disk().(*disk.Disk), sc)
		t := &trial{fs: r.fs, mgr: msm.New(fd, adm), dev: fd, opts: r.plan(k, 2*k)}
		// Forced k with no stepwise transitions: the whole population
		// is admitted at virtual time zero, exactly at the Eq. 18
		// operating point the slack-budget retry is derived from.
		t.mgr.SetPolicy(msm.NaiveJump)
		t.mgr.ForceK(k)
		if _, err := t.admit(strands...); err != nil {
			panic(fmt.Sprintf("experiments: EXP-FT admission rejected at n=%d: %v", row.streams, err))
		}
		c := t.run()
		st := t.mgr.Stats()
		fst := fd.FaultStats()
		faults := fst.ReadErrors + fst.BadSectors
		label := row.spec
		if label == "" {
			label = "bad sector (2 LBAs)"
		}
		res.AddRow(label, fmt.Sprint(row.streams), fmt.Sprint(c.completed),
			fmt.Sprint(st.FaultStops), fmt.Sprint(faults),
			fmt.Sprint(st.Retries), fmt.Sprint(st.DegradedBlocks), fmt.Sprint(c.late))
	}

	res.Note("n_max = %d (Eq. 17), k = %d (Eq. 18); each stream plays a 10 s strand (100 blocks)", nmax, k)
	res.Note("retry budget per round is Eq. 18's measured slack k·γ − n·α − n·k·β: thin at n_max, where a fault may degrade to zero-fill; at half load retries absorb them")
	res.Note("a turn reads a stream's back-to-back blocks as one access, so a storm draws once per run, not once per block; a faulted run is re-read block by block — one retry, its failed access paid from the slack — and a block whose own read fails again climbs the ladder alone")
	res.Note("degraded blocks glitch one block of one stream each — the play finishes and the admission set is untouched (zero aborted plays at realistic error rates)")
	res.Note("persistent defects (grown bad sectors) skip the retry tier: once the run is re-read block by block, re-reading the defective block cannot succeed, so it degrades directly every time it is played")
	res.Note("extension beyond the paper: Rangan & Vin assume a fault-free drive; the ladder spends only slack the worst-case admission charging already reserved")
	return res
}
