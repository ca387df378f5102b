package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/msm"
	"mmfs/internal/strand"
)

// cell parses a table cell as an int, tolerating decorations.
func cellInt(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		t.Fatalf("cell %q not an int", s)
	}
	return n
}

func TestRenderProducesTable(t *testing.T) {
	r := Result{ID: "X", Title: "t", Headers: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.Note("n %d", 5)
	var buf bytes.Buffer
	Render(&buf, r)
	out := buf.String()
	for _, want := range []string{"== X: t ==", "a", "bb", "1", "2", "note: n 5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

// A trial ends by asking the file system's oracles: in a rig where a
// strand's run was freed behind the allocator's back, the trial that
// plays the strand panics with fsck's finding.
func TestTrialsAskTheOracles(t *testing.T) {
	r := newRig()
	_, s := r.recordVideoRope(2, 4099)
	r.fs.Allocator().Free(s.MediaRuns()[0])
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "fsck: ") {
			t.Fatalf("the trial after a run was freed behind the allocator: %q; want an fsck finding", msg)
		}
	}()
	r.playStrands([]*strand.Strand{s}, 2, 4, 0)
}

func TestByID(t *testing.T) {
	for _, id := range []string{"f4", "e1", "e2", "e3", "e46", "nmax", "trans", "edit", "ra", "sil", "hdtv", "ff", "vbr", "scan", "reorg", "ic", "ft", "stripe", "qos", "rebuild"} {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %q unknown", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus ID resolved")
	}
}

func TestF4ShapeMatchesFigure4(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation sweep")
	}
	res := F4()
	if len(res.Rows) < 3 {
		t.Fatalf("only %d rows", len(res.Rows))
	}
	// k columns are non-decreasing in n and rise toward n_max.
	prevSteady, prevSim := 0, 0
	for _, row := range res.Rows {
		ks := cellInt(t, row[1])
		sim := cellInt(t, row[3])
		if ks < prevSteady {
			t.Fatalf("steady k decreased: %v", res.Rows)
		}
		if sim < prevSim {
			t.Fatalf("simulated k decreased: %v", res.Rows)
		}
		if sim > cellInt(t, row[2]) {
			t.Fatalf("simulated k exceeds the transient bound: %v", row)
		}
		if viol := cellInt(t, row[5]); viol != 0 {
			t.Fatalf("violations at chosen k: %v", row)
		}
		prevSteady, prevSim = ks, sim
	}
	last := res.Rows[len(res.Rows)-1]
	if cellInt(t, last[1]) <= cellInt(t, res.Rows[0][1]) {
		t.Fatal("no k growth toward n_max; Figure 4's shape lost")
	}
}

func TestE1E2FrontiersValidated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	for _, res := range []Result{E1Sequential(), E2Pipelined()} {
		for _, row := range res.Rows {
			if cellInt(t, row[len(row)-2]) != 0 {
				t.Fatalf("%s: violations at the bound: %v", res.ID, row)
			}
		}
	}
	// The q=1 rows of both experiments must show violations past the
	// bound (where a past-the-bound distance exists).
	e1 := E1Sequential()
	if cellInt(t, e1.Rows[0][len(e1.Rows[0])-1]) == 0 {
		t.Fatal("E1: no violations past the bound at q=1")
	}
	e2 := E2Pipelined()
	if cellInt(t, e2.Rows[0][len(e2.Rows[0])-1]) == 0 {
		t.Fatal("E2: no violations past the bound at q=1")
	}
}

func TestTransitionContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation")
	}
	res := Transition()
	if len(res.Rows) != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
	stepwise := cellInt(t, res.Rows[0][4])
	naive := cellInt(t, res.Rows[1][4])
	if stepwise != 0 {
		t.Fatalf("stepwise transition violated %d times", stepwise)
	}
	if naive == 0 {
		t.Fatal("naive jump shows no transient violations; the experiment lost its contrast")
	}
}

func TestEditCopyMatchesPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation")
	}
	res := EditCopy()
	for _, row := range res.Rows {
		copied := cellInt(t, row[3])
		pred := cellInt(t, row[4])
		worst := cellInt(t, row[5])
		if copied > worst {
			t.Fatalf("copied %d beyond worst case %d: %v", copied, worst, row)
		}
		// On a lightly contended disk the measured count equals the
		// even-redistribution prediction; dense fills may exceed it
		// but never the worst case.
		if strings.HasPrefix(row[0], "0%") && copied != pred {
			t.Fatalf("sparse-disk copies %d, predicted %d", copied, pred)
		}
		if viol := cellInt(t, row[6]); viol != 0 {
			t.Fatalf("post-edit playback violated: %v", row)
		}
	}
}

func TestSilenceSavingsTrackFraction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := Silence()
	prevSaved := -1
	for _, row := range res.Rows {
		saved := cellInt(t, strings.TrimSuffix(row[5], "%"))
		if saved < prevSaved {
			t.Fatalf("savings not monotone: %v", res.Rows)
		}
		if viol := cellInt(t, row[6]); viol != 0 {
			t.Fatalf("silence playback violated: %v", row)
		}
		prevSaved = saved
	}
	last := res.Rows[len(res.Rows)-1]
	if saved := cellInt(t, strings.TrimSuffix(last[5], "%")); saved < 50 {
		t.Fatalf("80%% silence saved only %d%%", saved)
	}
}

func TestHDTVArithmetic(t *testing.T) {
	res := HDTV()
	// Paper's 0.32 Gbit/s figure and verdicts.
	if !strings.HasPrefix(res.Rows[0][2], "0.3") {
		t.Fatalf("random-allocation rate %q, want ≈ 0.33", res.Rows[0][2])
	}
	if res.Rows[0][3] != "no" || res.Rows[2][3] != "yes" {
		t.Fatalf("verdicts %v", res.Rows)
	}
}

func TestFastForwardCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := FastForward()
	foundCross := false
	for _, row := range res.Rows {
		if row[1] == "no" && row[2] == "no" {
			// Analytically infeasible no-skip row: the simulation
			// must also have violated (or been rejected, -1).
			if cellInt(t, row[4]) == 0 {
				t.Fatalf("infeasible FF played clean: %v", row)
			}
			foundCross = true
		}
		if row[2] == "yes" {
			if cellInt(t, row[4]) != 0 {
				t.Fatalf("feasible FF violated: %v", row)
			}
		}
	}
	if !foundCross {
		t.Fatal("no infeasible no-skip speed in the sweep")
	}
}

func TestNMaxMonotoneInDeviceSpeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res := NMax()
	prev := 0
	for _, row := range res.Rows {
		n := cellInt(t, row[4])
		if n < prev {
			t.Fatalf("n_max decreased on a faster device: %v", res.Rows)
		}
		prev = n
	}
	for _, note := range res.Notes {
		if strings.Contains(note, "BUG") {
			t.Fatal(note)
		}
	}
}

func TestReadAheadProvisioningKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation")
	}
	res := ReadAhead()
	first := cellInt(t, res.Rows[0][4])
	last := cellInt(t, res.Rows[len(res.Rows)-1][4])
	if first == 0 {
		t.Fatal("under-provisioned streams showed no violations")
	}
	if last != 0 {
		t.Fatalf("fully provisioned streams violated %d times", last)
	}
}

func TestE3ConcurrentAllClean(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := E3Concurrent()
	for _, row := range res.Rows {
		if row[3] == "-" {
			continue
		}
		if v := cellInt(t, row[3]); v != 0 {
			t.Fatalf("violations at the Eq. 3 bound: %v", row)
		}
	}
}

// TestConcurrentRecurrenceBites holds EXP-E3's validation column to the
// device it models: all.golden pins only zeros, which a recurrence that
// never reports a late block would print too. At every E3 row's bound
// distance the device is on time, never has more than p reads in flight
// and never holds more than 2p blocks; on a disk whose access time
// exceeds p block durations it falls behind, for every p.
func TestConcurrentRecurrenceBites(t *testing.T) {
	m := ntsc()
	g := disk.DefaultGeometry()
	for _, p := range []int{2, 4, 8} {
		cfg := continuity.Config{Arch: continuity.Concurrent, P: p}
		for _, q := range []int{1, 3} {
			lds, ok := continuity.MaxScattering(cfg, q, m, msm.DeviceFor(g))
			if !ok {
				t.Fatalf("p=%d q=%d: Eq. 3 infeasible", p, q)
			}
			dist := min(g.MaxDistanceWithin(continuity.Duration(lds)), g.Cylinders-1)
			if v := concurrentViolations(g, p, q, m, dist); v != 0 {
				t.Fatalf("p=%d q=%d: %d late blocks at the bound distance %d", p, q, v, dist)
			}
			start, arrive, play := concurrentSchedule(g, p, q, m, dist)
			dur := m.PlaybackDuration(q)
			for j, now := range start {
				reading, held := 0, 0
				for i := range start {
					if start[i] > now {
						continue
					}
					if now < arrive[i] {
						reading++
					}
					if now < max(arrive[i], play+float64(i+1)*dur) {
						held++
					}
				}
				if reading > p || held > 2*p {
					t.Fatalf("p=%d q=%d: when block %d's read starts, %d reads are in flight and %d blocks held",
						p, q, j, reading, held)
				}
			}
		}
	}

	slow := disk.DefaultGeometry()
	slow.MaxSeek = 300 * time.Millisecond
	const q = 1
	for _, p := range []int{2, 4, 8} {
		pdur := float64(p) * m.PlaybackDuration(q)
		dist := min(slow.MaxDistanceWithin(continuity.Duration(pdur))+1, slow.Cylinders-1)
		if continuity.Seconds(slow.AccessTime(dist)) <= pdur {
			t.Fatalf("p=%d: no distance costs more than %d block durations", p, p)
		}
		if v := concurrentViolations(slow, p, q, m, dist); v == 0 {
			t.Fatalf("p=%d: no late block with accesses of %v, over %d block durations",
				p, slow.AccessTime(dist), p)
		}
	}
}

func TestE46MixedMediaOrdering(t *testing.T) {
	res := E46MixedMedia()
	// For each q_v, the heterogeneous bound must be the largest.
	type key struct{ qv string }
	best := map[string]float64{}
	het := map[string]float64{}
	for _, row := range res.Rows {
		if row[4] == "-" {
			continue
		}
		v, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if row[2] == "heterogeneous" {
			het[row[0]] = v
		} else if v > best[row[0]] {
			best[row[0]] = v
		}
	}
	for qv, h := range het {
		if h < best[qv] {
			t.Fatalf("q_v=%s: heterogeneous bound %.2f below homogeneous %.2f", qv, h, best[qv])
		}
	}
}

func TestVBRExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res := VBR()
	// Storage gain must be meaningfully above 1×.
	var gain float64
	for _, row := range res.Rows {
		if row[0] == "storage gain" {
			_, err := fmt.Sscanf(row[2], "%f", &gain)
			if err != nil {
				t.Fatal(err)
			}
		}
		if strings.HasPrefix(row[0], "sim violations") {
			if cellInt(t, row[2]) != 0 {
				t.Fatalf("VBR playback violated: %v", row)
			}
		}
	}
	if gain < 1.5 {
		t.Fatalf("storage gain %.2f×, want ≥ 1.5×", gain)
	}
}

func TestScanExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy simulation")
	}
	res := Scan()
	if len(res.Rows) != 3 {
		t.Fatalf("rows %v", res.Rows)
	}
	zig := cellInt(t, res.Rows[0][2])
	sorted := cellInt(t, res.Rows[1][2])
	if sorted > zig {
		t.Fatalf("cylinder-sorted order needs more k (%d) than zig-zag (%d)", sorted, zig)
	}
	var zigSeek, scanSeek float64
	fmt.Sscanf(res.Rows[0][3], "%f", &zigSeek)
	fmt.Sscanf(res.Rows[2][3], "%f", &scanSeek)
	if scanSeek >= zigSeek {
		t.Fatalf("C-SCAN did not reduce total seek: %.1f vs %.1f", scanSeek, zigSeek)
	}
}

func TestReorgExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	res := Reorg()
	if len(res.Rows) != 2 {
		t.Fatalf("rows %v", res.Rows)
	}
	before := cellInt(t, res.Rows[0][3])
	after := cellInt(t, res.Rows[1][3])
	want := cellInt(t, res.Rows[1][4])
	if before >= want {
		t.Fatalf("fragmented disk placed all %d blocks; no failure to fix", before)
	}
	if after != want {
		t.Fatalf("after compaction placed %d of %d blocks", after, want)
	}
}

func TestIntervalCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res := IntervalCache()
	nmax := continuity.AdmissionFor(stdDevice()).NMax(cachePlanRequest())
	if len(res.Rows) < 2 {
		t.Fatalf("rows %v", res.Rows)
	}
	off := res.Rows[0]
	if cellInt(t, off[1]) != nmax || cellInt(t, off[3]) != 0 {
		t.Fatalf("cache disabled: admitted %s (want n_max=%d) cache-served %s (want 0)", off[1], nmax, off[3])
	}
	on := res.Rows[len(res.Rows)-1]
	if got := cellInt(t, on[1]); got < nmax+2 {
		t.Fatalf("largest cache admitted %d plays, want >= n_max+2 = %d", got, nmax+2)
	}
	if cellInt(t, on[4]) != 0 {
		t.Fatalf("largest cache still rejected %s plays", on[4])
	}
	if cellInt(t, on[5]) != 0 {
		t.Fatalf("cache-admitted plays violated continuity: %v", on)
	}
	if cellInt(t, on[3]) == 0 {
		t.Fatal("no play was cache-served at the largest cache size")
	}
}

func TestFaultTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos simulation sweep")
	}
	res := FaultTolerance()
	if len(res.Rows) != 5 {
		t.Fatalf("rows %v", res.Rows)
	}
	// Columns: scenario, streams, completed, stopped, faults, retries, degraded, late.
	for _, row := range res.Rows {
		streams, completed := cellInt(t, row[1]), cellInt(t, row[2])
		if completed != streams {
			t.Fatalf("%s: %d/%d streams aborted mid-play", row[0], streams-completed, streams)
		}
		if stopped := cellInt(t, row[3]); stopped != 0 {
			t.Fatalf("%s: %d escalation stops at realistic error rates", row[0], stopped)
		}
		faults, retries, degraded := cellInt(t, row[4]), cellInt(t, row[5]), cellInt(t, row[6])
		if degraded > faults {
			t.Fatalf("%s: %d degraded blocks exceed %d injected faults", row[0], degraded, faults)
		}
		// Bounded degradation: well under 10%% of the blocks played.
		if total := streams * 100; degraded*10 >= total {
			t.Fatalf("%s: %d of %d blocks degraded", row[0], degraded, total)
		}
		if row[0] != "off" && faults > 0 && retries+degraded == 0 {
			t.Fatalf("%s: %d faults injected but none handled by the ladder", row[0], faults)
		}
		if late := cellInt(t, row[7]); late != 0 {
			t.Fatalf("%s: %d late blocks — degradation leaked into continuity", row[0], late)
		}
	}
	off := res.Rows[0]
	if cellInt(t, off[4])+cellInt(t, off[5])+cellInt(t, off[6]) != 0 {
		t.Fatalf("injection disabled but fault path active: %v", off)
	}
	for _, row := range res.Rows[1:] {
		if cellInt(t, row[4]) == 0 {
			t.Fatalf("%s: storm injected no faults", row[0])
		}
	}
}

func TestQoS(t *testing.T) {
	if testing.Short() {
		t.Skip("diurnal load simulation")
	}
	res := QoS()
	if len(res.Rows) != 4 {
		t.Fatalf("rows %v", res.Rows)
	}
	// Columns: phase, offered, admitted, rejected, degraded, recovered,
	// prem viol, shed blk.
	offPeak, peak, drain, base := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	if cellInt(t, offPeak[1]) != cellInt(t, offPeak[2]) || cellInt(t, offPeak[4]) != 0 {
		t.Fatalf("off-peak load not admitted clean at full rate: %v", offPeak)
	}
	if cellInt(t, peak[4]) == 0 {
		t.Fatalf("no stream degraded at peak: %v", peak)
	}
	if cellInt(t, drain[5]) == 0 {
		t.Fatalf("no degraded stream recovered to full rate off-peak: %v", drain)
	}
	if cellInt(t, drain[6]) != 0 {
		t.Fatalf("premium streams disturbed: %v", drain)
	}
	if cellInt(t, base[3]) == 0 {
		t.Fatalf("baseline rejected nothing — overload too weak: %v", base)
	}
	qosServed := cellInt(t, offPeak[2]) + cellInt(t, peak[2])
	if qosServed <= cellInt(t, base[2]) {
		t.Fatalf("QoS served %d streams, baseline %s — shedding bought nothing", qosServed, base[2])
	}
}

// TestQoSPeakRound drives just the overloaded peak of EXP-QOS — class
// negotiation, shedding, and the per-round class pass — on a small
// two-spindle rig. It is the CI race detector's entry point for the
// QoS layer, so it stays fast.
func TestQoSPeakRound(t *testing.T) {
	const p = 2
	r := newQoSRig(p)
	adm := continuity.AdmissionFor(r.fs.Device())
	tmpl := continuity.Request{
		Name: "video", Granularity: 3, UnitBits: frameBytes * 8, Rate: 30,
		Scattering: r.scattering(),
	}
	feasible := func(n, k int) bool { return adm.FeasibleTransient(population(tmpl, n), k) }
	k := 1
	for !feasible(3, k) {
		k++
	}
	if feasible(6, k) {
		t.Skip("device admits the whole burst at full rate; peak cannot overload")
	}
	tr := r.qosTrial(k)
	mgr := tr.mgr
	mgr.SetQoS(msm.QoSPolicy{MaxStride: continuity.DefaultMaxStride})
	classes := []continuity.Class{
		continuity.BestEffort, continuity.Standard,
		continuity.BestEffort, continuity.Standard,
		continuity.Premium, continuity.BestEffort,
	}
	degraded := 0
	for sp := 0; sp < p; sp++ {
		for i, c := range classes {
			tr.opts.Class = c
			dec, err := tr.admit(r.recordSlot(sp, 150))
			if err != nil {
				t.Fatalf("spindle %d arrival %d (%v): %v", sp, i, c, err)
			}
			if dec.Stride > 1 {
				degraded++
			}
		}
		mgr.RunRound()
	}
	if degraded == 0 && mgr.Stats().LoadDemotions == 0 {
		t.Fatal("overloaded peak triggered no degradation and no shedding")
	}
	mgr.RunUntilDone()
	st := mgr.Stats()
	if st.ShedBlocks == 0 {
		t.Fatal("no blocks were shed by sub-sampled service")
	}
	qs := mgr.QoSStats()
	for c := range qs {
		if qs[c].Active != 0 {
			t.Fatalf("class %v still active after RunUntilDone", continuity.Class(c))
		}
	}
}

func TestStripedScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-spindle simulation sweep")
	}
	res := Stripe()
	if len(res.Rows) != 4 {
		t.Fatalf("rows %v", res.Rows)
	}
	// Columns: config, n_max/sp, streams, admitted, completed, late viol, degraded, stops.
	nmax := cellInt(t, res.Rows[0][1])
	if nmax < 2 {
		t.Fatalf("single-spindle n_max = %d; geometry too tight", nmax)
	}
	for i, p := range []int{1, 2, 4} {
		row := res.Rows[i]
		streams, admitted, completed := cellInt(t, row[2]), cellInt(t, row[3]), cellInt(t, row[4])
		if streams != p*nmax {
			t.Fatalf("%s: offered %d streams, want p·n_max = %d", row[0], streams, p*nmax)
		}
		if admitted != streams {
			t.Fatalf("%s: admitted %d of %d — per-spindle admission lost capacity", row[0], admitted, streams)
		}
		if completed != streams {
			t.Fatalf("%s: completed %d of %d", row[0], completed, streams)
		}
		if late := cellInt(t, row[5]); late != 0 {
			t.Fatalf("%s: %d continuity violations at p·n_max", row[0], late)
		}
		if deg := cellInt(t, row[6]); deg != 0 {
			t.Fatalf("%s: %d degraded blocks with no faults injected", row[0], deg)
		}
	}
	chaos := res.Rows[3]
	if late := cellInt(t, chaos[5]); late != 0 {
		t.Fatalf("chaos: %d violations on healthy spindles", late)
	}
	if deg := cellInt(t, chaos[6]); deg == 0 {
		t.Fatal("chaos: dead spindle produced no degraded blocks")
	}
	if stops := cellInt(t, chaos[7]); stops == 0 {
		t.Fatal("chaos: all-degraded stream never escalated to a stop")
	}
}

func TestRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("mirrored-array simulation sweep")
	}
	res := Rebuild()
	if len(res.Rows) != 5 {
		t.Fatalf("rows %v", res.Rows)
	}
	// Columns: phase, n_max/sp, streams, admitted, completed, prem viol,
	// degraded, stops, chunks.
	nmax := cellInt(t, res.Rows[0][1])
	if nmax < 2 {
		t.Fatalf("per-spindle n_max = %d; geometry too tight", nmax)
	}
	healthy, degraded, rebuilt := res.Rows[0], res.Rows[2], res.Rows[4]
	if got := cellInt(t, healthy[3]); got != 4*nmax {
		t.Fatalf("healthy array admitted %d, want p·n_max = %d", got, 4*nmax)
	}
	if got := cellInt(t, degraded[3]); got != 3*nmax {
		t.Fatalf("degraded array admitted %d, want (p-1)·n_max = %d", got, 3*nmax)
	}
	if got := cellInt(t, rebuilt[3]); got != 4*nmax {
		t.Fatalf("rebuilt array admitted %d, want p·n_max restored = %d", got, 4*nmax)
	}
	service := res.Rows[1]
	if got := cellInt(t, service[4]); got != 4 {
		t.Fatalf("only %d/4 streams survived the spindle loss", got)
	}
	if got := cellInt(t, service[5]); got != 0 {
		t.Fatalf("%d premium continuity violations during the loss", got)
	}
	if got := cellInt(t, service[6]); got == 0 {
		t.Fatal("the die scenario never degraded the victim stream")
	}
	if got := cellInt(t, service[7]); got != 0 {
		t.Fatalf("%d streams aborted instead of re-steered", got)
	}
	if got := cellInt(t, res.Rows[3][8]); got == 0 {
		t.Fatal("online rebuild copied no chunks")
	}
	if got := cellInt(t, rebuilt[5]); got != 0 {
		t.Fatalf("post-rebuild replay had %d violations", got)
	}
}
