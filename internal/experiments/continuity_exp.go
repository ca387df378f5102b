package experiments

import (
	"fmt"
	"slices"

	"mmfs/internal/alloc"
	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/strand"
)

// E1Sequential regenerates Eq. 1's feasibility frontier: for each
// granularity q, the largest scattering parameter l_ds under which
// sequential retrieval (read, then display, then next read) stays
// continuous — validated by a recurrence simulation of the sequential
// device over the disk's seek model, at the bound and just past it.
func E1Sequential() Result {
	res := Result{
		ID:      "EXP-E1",
		Title:   "Sequential retrieval continuity (Eq. 1): max scattering vs granularity",
		Headers: []string{"q (frames/blk)", "block (ms)", "read+disp (ms)", "max l_ds (ms)", "viol @bound", "viol @bound+1cyl"},
	}
	g := disk.DefaultGeometry()
	dev := stdDevice()
	m := ntsc()
	cfg := continuity.Config{Arch: continuity.Sequential}
	for _, q := range []int{1, 2, 4, 8, 16, 32} {
		lds, ok := continuity.MaxScattering(cfg, q, m, dev)
		if !ok {
			res.AddRow(fmt.Sprint(q), ms(m.PlaybackDuration(q)), "-", "infeasible", "-", "-")
			continue
		}
		busy := dev.TransferTime(m.BlockBits(q)) + m.DisplayTime(q)
		dist := g.MaxDistanceWithin(continuity.Duration(lds))
		vAt := sequentialViolations(g, q, m, dist)
		vPast := sequentialViolations(g, q, m, dist+1)
		res.AddRow(fmt.Sprint(q), ms(m.PlaybackDuration(q)), ms(busy), ms(lds),
			fmt.Sprint(vAt), fmt.Sprint(vPast))
	}
	res.Note("larger blocks amortize the scattering budget: max l_ds grows linearly with q (§3.3.4)")
	res.Note("the recurrence sim violates continuity exactly when block separation exceeds the Eq. 1 distance")
	return res
}

// sequentialViolations simulates the strictly sequential device: the
// read of block j+1 begins only after block j has been read and
// displayed. Blocks are spaced dist cylinders apart on the seek model.
// It returns the number of blocks whose data was not ready by its
// playback deadline over a 200-block strand.
func sequentialViolations(g disk.Geometry, q int, m continuity.Media, dist int) int {
	if dist < 0 {
		dist = 0
	}
	if dist > g.Cylinders-1 {
		dist = g.Cylinders - 1
	}
	lds := continuity.Seconds(g.AccessTime(dist))
	dev := msm.DeviceFor(g)
	read := lds + dev.TransferTime(m.BlockBits(q))
	disp := m.DisplayTime(q)
	dur := m.PlaybackDuration(q)
	const blocks = 200
	violations := 0
	// finish(j): block j fully read and pushed through the display
	// path; playback of block 0 starts at finish(0).
	finish := read + disp
	playStart := finish
	for j := 1; j < blocks; j++ {
		finish += read + disp // next read starts after display completes
		deadline := playStart + float64(j)*dur
		if finish > deadline+1e-12 {
			violations++
		}
	}
	return violations
}

// E2Pipelined regenerates Eq. 2's frontier and validates it end-to-end
// on the storage manager: a strand is recorded with its blocks exactly
// at the frontier distance and played with two buffers (zero
// violations), then re-recorded one cylinder past the frontier
// (violations appear).
func E2Pipelined() Result {
	res := Result{
		ID:      "EXP-E2",
		Title:   "Pipelined retrieval continuity (Eq. 2): max scattering vs granularity",
		Headers: []string{"q (frames/blk)", "block (ms)", "xfer (ms)", "max l_ds (ms)", "max dist (cyl)", "viol @bound", "viol @bound+1cyl"},
	}
	dev := stdDevice()
	m := ntsc()
	cfg := continuity.Config{Arch: continuity.Pipelined}
	for _, q := range []int{1, 2, 4, 8, 16, 32} {
		lds, ok := continuity.MaxScattering(cfg, q, m, dev)
		if !ok {
			res.AddRow(fmt.Sprint(q), ms(m.PlaybackDuration(q)), "-", "infeasible", "-", "-", "-")
			continue
		}
		g := disk.DefaultGeometry()
		dist := g.MaxDistanceWithin(continuity.Duration(lds))
		if dist > g.Cylinders-2 {
			dist = g.Cylinders - 2
		}
		lo := dist - 30
		vAt := pipelinedViolations(q, lo, dist)
		vPast := -1
		if realized := continuity.Seconds(g.AccessTime(dist + 1)); realized > lds {
			hi := dist + 40
			if hi > g.Cylinders-1 {
				hi = g.Cylinders - 1
			}
			vPast = pipelinedViolations(q, dist+1, hi)
		}
		past := "n/a"
		if vPast >= 0 {
			past = fmt.Sprint(vPast)
		}
		res.AddRow(fmt.Sprint(q), ms(m.PlaybackDuration(q)), ms(dev.TransferTime(m.BlockBits(q))),
			ms(lds), fmt.Sprint(dist), fmt.Sprint(vAt), past)
	}
	res.Note("pipelining removes the display term from the budget, so max l_ds exceeds the sequential bound at every q")
	return res
}

// pipelinedViolations records a video strand whose inter-block
// separations fall in [distLo, distHi] cylinders and plays it with two
// buffers, returning the violation count.
func pipelinedViolations(q, distLo, distHi int) int {
	r := newRig()
	s := r.recordStrandAtDistance(q, distLo, distHi, 150)
	v, _ := r.playStrands([]*strand.Strand{s}, 1, 2, 1)
	return v
}

// recordStrandAtDistance records a video strand at granularity q with
// successive blocks [distLo, distHi] cylinders apart. Extreme
// distances (a large fraction of the disk) can only sustain a short
// ping-pong chain between the disk's ends before the end regions fill,
// so recording stops at the first constrained-allocation failure; the
// strand keeps whatever prefix was placed (at least a handful of
// blocks at any distance on an empty disk).
func (r *rig) recordStrandAtDistance(q, distLo, distHi, blocks int) *strand.Strand {
	g := r.fs.Disk().Geometry()
	if distLo < 1 {
		distLo = 1
	}
	if distHi > g.Cylinders-1 {
		distHi = g.Cylinders - 1
	}
	if distLo > distHi {
		distLo = distHi
	}
	s := r.record(media.NewVideoSource(blocks*q, frameBytes, 30, int64(distHi*1000+q)),
		take{q: q, place: alloc.Constraint{MinCylinders: distLo, MaxCylinders: distHi}, untilFull: true})
	if s.NumBlocks() < 4 {
		panic(fmt.Sprintf("experiments: only %d blocks fit %d–%d cylinders apart", s.NumBlocks(), distLo, distHi))
	}
	return s
}

// E3Concurrent regenerates Eq. 3's frontier for p ∈ {2, 4, 8}: with p
// parallel disk accesses the read of a block may take up to (p−1)
// block playback durations. As in EXP-E1, a recurrence over the seek
// model validates each frontier (concurrentViolations); its device
// tolerates reads of up to p block durations, so zero late blocks at
// the bound confirm Eq. 3 conservative.
func E3Concurrent() Result {
	res := Result{
		ID:      "EXP-E3",
		Title:   "Concurrent retrieval continuity (Eq. 3): max scattering vs degree of concurrency",
		Headers: []string{"p (heads)", "q (frames/blk)", "max l_ds Eq.3 (ms)", "viol @Eq.3 bound", "viol @2p·dur dist"},
	}
	m := ntsc()
	g := disk.DefaultGeometry()
	dev := msm.DeviceFor(g)
	for _, p := range []int{2, 4, 8} {
		cfg := continuity.Config{Arch: continuity.Concurrent, P: p}
		for _, q := range []int{1, 3} {
			lds, ok := continuity.MaxScattering(cfg, q, m, dev)
			if !ok {
				res.AddRow(fmt.Sprint(p), fmt.Sprint(q), "infeasible", "-", "-")
				continue
			}
			dist := min(g.MaxDistanceWithin(continuity.Duration(lds)), g.Cylinders-1)
			vAt := concurrentViolations(g, p, q, m, dist)
			// A separation whose access time exceeds even the
			// device's p·dur tolerance must violate.
			tooFar := g.MaxDistanceWithin(continuity.Duration(
				float64(p) * m.PlaybackDuration(q) * 2)) // far past any bound
			past := "n/a"
			if tooFar > dist && continuity.Seconds(g.AccessTime(tooFar)) > float64(p)*m.PlaybackDuration(q) {
				past = fmt.Sprint(concurrentViolations(g, p, q, m, tooFar))
			}
			res.AddRow(fmt.Sprint(p), fmt.Sprint(q), ms(lds), fmt.Sprint(vAt), past)
		}
	}
	res.Note("p parallel accesses multiply the scattering budget by (p−1): RAID-class concurrency admits nearly unconstrained placement for NTSC-rate media")
	return res
}

// concurrentViolations simulates Figure 3's concurrent device of
// degree p over the seek model, blocks dist cylinders apart, and
// returns the number of blocks of a 200-block strand whose data was
// not ready by its playback deadline.
func concurrentViolations(g disk.Geometry, p, q int, m continuity.Media, dist int) (late int) {
	_, arrive, play := concurrentSchedule(g, p, q, m, dist)
	for j, a := range arrive {
		if a > play+float64(j)*m.PlaybackDuration(q)+1e-12 {
			late++
		}
	}
	return late
}

// concurrentSchedule is the recurrence behind concurrentViolations. p
// actuators read in parallel, actuator h taking blocks h, h+p, …, each
// read costing the access time at dist plus the transfer. There are 2p
// buffers, so block j's read also waits until block j−2p has left its
// buffer: displayed, or arrived if it came later than its display slot.
// Playback starts at the p-th arrival. It returns when each block's
// read starts and arrives, and when playback starts, in seconds.
func concurrentSchedule(g disk.Geometry, p, q int, m continuity.Media, dist int) (start, arrive []float64, play float64) {
	read := continuity.Seconds(g.AccessTime(dist)) + msm.DeviceFor(g).TransferTime(m.BlockBits(q))
	start, arrive = make([]float64, 200), make([]float64, 200)
	for j := range start {
		if j >= p {
			start[j] = arrive[j-p] // the actuator's previous read
		}
		if j == p {
			play = slices.Max(arrive[:p])
		}
		if i := j - 2*p; i >= 0 {
			start[j] = max(start[j], arrive[i], play+float64(i+1)*m.PlaybackDuration(q))
		}
		arrive[j] = start[j] + read
	}
	return start, arrive, play
}

// E46MixedMedia regenerates Eqs. 4–6: the continuity thresholds for
// storing one audio and one video component under homogeneous blocks
// (audio-block duration n video blocks) versus heterogeneous blocks,
// and validates the homogeneous scheme by playing a recorded AV rope.
func E46MixedMedia() Result {
	res := Result{
		ID:      "EXP-E46",
		Title:   "Mixed audio+video storage (Eqs. 4–6): max scattering by layout",
		Headers: []string{"q_v", "n (dur ratio)", "layout", "q_a (samples/blk)", "max l_ds (ms)", "feasible"},
	}
	dev := stdDevice()
	video := ntsc()
	audio := continuity.TelephoneAudio()
	for _, qv := range []int{1, 3, 6} {
		for _, n := range []float64{1, 2, 4} {
			hom, err := continuity.DeriveAV(continuity.HomogeneousBlocks, qv, video, audio, n, dev)
			if err != nil {
				res.AddRow(fmt.Sprint(qv), fmt.Sprint(n), "homogeneous", "-", "-", "no")
			} else {
				res.AddRow(fmt.Sprint(qv), fmt.Sprint(n), "homogeneous",
					fmt.Sprint(hom.AudioGran), ms(hom.MaxScattering), "yes")
			}
		}
		het, err := continuity.DeriveAV(continuity.HeterogeneousBlocks, qv, video, audio, 1, dev)
		if err != nil {
			res.AddRow(fmt.Sprint(qv), "1", "heterogeneous", "-", "-", "no")
		} else {
			res.AddRow(fmt.Sprint(qv), "1", "heterogeneous",
				fmt.Sprint(het.AudioGran), ms(het.MaxScattering), "yes")
		}
	}

	// Validate both schemes end to end: the same 4-second AV content
	// recorded as homogeneous strands (explicit synchronization, two
	// requests) and as one heterogeneous strand (implicit
	// synchronization, one request); measure disk accesses and
	// violations.
	type av struct {
		name     string
		hetero   bool
		accesses uint64
		requests int
		viol     int
	}
	trials := []av{{name: "homogeneous"}, {name: "heterogeneous", hetero: true}}
	for i := range trials {
		r := newRig()
		sess, err := r.fs.Record(core.RecordSpec{
			Creator:       "exp",
			Video:         media.NewVideoSource(120, frameBytes, 30, 46),
			Audio:         media.NewAudioSource(60, 800, 15, 0, 1, 47),
			Heterogeneous: trials[i].hetero,
		})
		if err != nil {
			panic(err)
		}
		r.fs.Manager().RunUntilDone()
		rp, err := sess.Finish()
		if err != nil {
			panic(err)
		}
		mgr := r.fs.NewManager()
		r.fs.Disk().ResetStats()
		h, err := r.fs.Play("exp", rp.ID, 0 /* AudioVisual */, 0, 0, msm.PlanOptions{ReadAhead: 2})
		if err != nil {
			panic(err)
		}
		mgr.RunUntilDone()
		check(r.fs)
		viol, err := r.fs.PlayViolations(h)
		if err != nil {
			panic(err)
		}
		trials[i].viol = viol
		trials[i].accesses = r.fs.Disk().Stats().Reads
		trials[i].requests = len(h.Requests())
	}
	res.Note("homogeneous blocks pay one extra scattering gap per audio block; heterogeneous (or adjacent placement, Eq. 6) fold audio into the video budget")
	for _, tr := range trials {
		res.Note("measured %s playback of the same 4 s AV content: %d request(s), %d disk reads, %d violations",
			tr.name, tr.requests, tr.accesses, tr.viol)
	}
	return res
}

// HDTV regenerates §3's motivating arithmetic: a future disk array
// with 100 parallel heads and 10 ms positioning cannot sustain one
// 2.5 Gbit/s HDTV strand at 4 KB blocks under unconstrained (random)
// allocation, while constrained allocation makes the same hardware
// sufficient.
func HDTV() Result {
	res := Result{
		ID:      "EXP-HDTV",
		Title:   "HDTV motivating arithmetic (§3): random vs constrained allocation on a 100-head array",
		Headers: []string{"allocation", "per-access overhead (ms)", "effective rate (Gbit/s)", "HDTV 2.5 Gbit/s"},
	}
	const (
		heads       = 100
		blockBytes  = 4096
		posOverhead = 0.010 // seek + latency, seconds
		hdtvRate    = 2.5e9
	)
	blockBits := float64(blockBytes * 8)
	// Random allocation: every block pays the full positioning cost;
	// the paper neglects transfer time at these block sizes.
	randomRate := heads * blockBits / posOverhead
	res.AddRow("random (paper's example)", "10.00", fmt.Sprintf("%.2f", randomRate/1e9), yesno(randomRate >= hdtvRate))

	// Same array under our seek model, one DefaultGeometry disk per
	// head, with transfer time included.
	g := disk.DefaultGeometry()
	perHead := g.TransferRateBits()
	xfer := blockBits / perHead
	avgAccess := continuity.Seconds(g.SeekTime((g.Cylinders-1)/3) + g.AvgRotationalLatency())
	modelRandom := heads * blockBits / (avgAccess + xfer)
	res.AddRow("random (our seek model)", ms(avgAccess), fmt.Sprintf("%.2f", modelRandom/1e9), yesno(modelRandom >= hdtvRate))

	// Constrained allocation: successive blocks adjacent, so only
	// transfer time remains.
	constrained := float64(heads) * perHead
	res.AddRow("constrained (adjacent blocks)", "0.00", fmt.Sprintf("%.2f", constrained/1e9), yesno(constrained >= hdtvRate))

	res.Note("paper: \"future disk arrays with 100 parallel heads and ... 10 ms will be able to support 0.32 Gigabits/s ... inadequate for ... HDTV ... up to 2.5 Gigabit/s\"")
	res.Note("measured random-allocation rate %.2f Gbit/s reproduces the 0.32 Gbit/s figure; constrained allocation clears the HDTV requirement", randomRate/1e9)
	return res
}

// FastForward regenerates §3.3.2's fast-forward analysis: speeding up
// without skipping tightens continuity AND buffering; skipping blocks
// tightens only continuity (via stretched effective scattering).
func FastForward() Result {
	res := Result{
		ID:      "EXP-FF",
		Title:   "Fast-forward (§3.3.2): continuity and buffering vs speed, with and without skipping",
		Headers: []string{"speed", "skip", "analytic feasible", "buffer ×", "sim violations"},
	}
	dev := stdDevice()
	m := ntsc()
	cfg := continuity.Config{Arch: continuity.Pipelined}
	const q = 3
	g := disk.DefaultGeometry()
	lds := continuity.Seconds(g.AccessTime(32))

	r := newRig()
	_, s := r.recordVideoRope(20, 4242)

	for _, speed := range []float64{1, 2, 4, 8} {
		for _, skip := range []bool{false, true} {
			if speed == 1 && skip {
				continue
			}
			ff := continuity.FastForward{Speed: speed, Skip: skip}
			feasible := ff.Feasible(cfg, q, lds, m, dev)
			viol := r.playFF(s, speed, skip)
			res.AddRow(
				fmt.Sprintf("%.0f×", speed),
				yesno(skip),
				yesno(feasible),
				fmt.Sprintf("%.0f", ff.BufferMultiplier()),
				fmt.Sprint(viol),
			)
		}
	}
	res.Note("paper: \"fast-forwarding without skipping frames increases both continuity and buffering requirements, fast-forwarding with skipping increases only the continuity requirement\"")
	res.Note("the crossover appears where the no-skip variant becomes infeasible while the skipping variant still plays clean")
	return res
}

// playFF plays the strand at the given speed on a fresh manager and
// returns the violation count, -1 when admission rejects it. The plan
// declares the strand's measured scattering.
func (r *rig) playFF(s *strand.Strand, speed float64, skip bool) int {
	buffers := 4
	if !skip && speed > 1 {
		buffers = int(4 * speed)
	}
	t := r.trial(msm.PlanOptions{ReadAhead: 2, Buffers: buffers, Speed: speed, Skip: skip})
	if _, err := t.admit(s); err != nil {
		return -1
	}
	return t.run().violations
}
