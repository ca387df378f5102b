package msm

import (
	"math/rand"
	"testing"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/layout"
	"mmfs/internal/strand"
)

// A turn over blocks stored back to back in one cylinder is ONE timed
// access: the device counts one read, and the turn costs one positioning
// plus the transfer of every sector. Each block arrives as the transfer
// passes its last sector — the display starts with the read-ahead's last
// block, and with 1 ms blocks every later block is late by exactly its
// place in the transfer.
func TestRunIsOneTimedAccess(t *testing.T) {
	const k = 8
	g := disk.DefaultGeometry()
	for _, tc := range []struct {
		name      string
		readAhead int
		squeeze   bool // 1 ms blocks: every block after the first is late
	}{
		{"display starts mid-run", 3, false},
		{"per-block arrivals", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, shape{})
			s := rig.write(take{units: 16, seed: 3100, backToBack: true, cyl: 200})
			rig.m = rig.manager(config{policy: NaiveJump, k: k})
			opts := PlanOptions{ReadAhead: tc.readAhead, Buffers: 2 * k, Scattering: rig.scattering()}
			if tc.squeeze {
				opts.Speed = 100 // 100 ms blocks play for 1 ms each
			}
			plan, err := PlanStrandPlay(rig.d, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Admission charges the recording rate either way.
			plan.Admission.Rate = s.Rate()
			id, _, err := rig.m.AdmitPlay(plan)
			if err != nil {
				t.Fatal(err)
			}
			first, _ := s.Block(0)
			pos := g.AccessTime(g.CylinderOf(int(first.Sector)) - rig.d.HeadCylinder())
			block := g.TransferTime(28)
			before, t0 := rig.d.Stats(), rig.m.Now()
			rig.m.RunRound()
			after := rig.d.Stats()
			if got := after.Reads - before.Reads; got != 1 {
				t.Fatalf("a turn of %d back-to-back blocks made %d reads, want 1", k, got)
			}
			if got, want := after.BusyTime()-before.BusyTime(), pos+g.TransferTime(k*28); got != want {
				t.Fatalf("the turn cost %v, want one positioning and %d sectors: %v", got, k*28, want)
			}
			p, _ := rig.m.Progress(id)
			if p.BlocksServed != k {
				t.Fatalf("the turn delivered %d blocks, want %d", p.BlocksServed, k)
			}
			if want := t0 + pos + time.Duration(tc.readAhead)*block; p.StartTime != want {
				t.Fatalf("display started at %v, want block %d's arrival %v", p.StartTime, tc.readAhead-1, want)
			}
			v, _ := rig.m.Violations(id)
			if !tc.squeeze {
				if len(v) != 0 {
					t.Fatalf("%d violation(s), first %+v", len(v), v[0])
				}
				return
			}
			if len(v) != k-1 {
				t.Fatalf("%d violations, want the %d blocks after the first", len(v), k-1)
			}
			for i, viol := range v {
				j := i + 1
				if viol.Block != j || viol.Actual != p.StartTime+time.Duration(j)*block || viol.Deadline != p.StartTime+time.Duration(j)*time.Millisecond {
					t.Fatalf("violation %+v, want block %d arriving at %v", viol, j, p.StartTime+time.Duration(j)*block)
				}
			}
		})
	}
}

// Every case the run rule names ends a run, so the device counts one
// read per piece.
func TestRunEndings(t *testing.T) {
	// A disk holding one back-to-back strand of the given blocks, under a
	// fresh manager set up as c says, with NaiveJump so an admission's k is
	// in force at once.
	oneStrand := func(t *testing.T, blocks int, c config) (*testRig, *strand.Strand) {
		rig := newRig(t, shape{})
		s := rig.write(take{units: blocks, seed: 3100, backToBack: true, cyl: 200})
		c.policy = NaiveJump
		rig.m = rig.manager(c)
		return rig, s
	}
	// A gap: fast-forward with skipping reads every other block, and
	// no two of those are back to back.
	t.Run("gap", func(t *testing.T) {
		rig, s := oneStrand(t, 16, config{k: 8})
		before := rig.d.Stats().Reads
		rig.play(s, PlanOptions{ReadAhead: 8, Buffers: 16, Speed: 2, Skip: true, Scattering: rig.scattering()}, 0, 16)
		rig.m.RunRound()
		if got := rig.d.Stats().Reads - before; got != 8 {
			t.Fatalf("8 blocks with gaps between them took %d reads, want 8", got)
		}
	})
	// A cylinder crossing: blocks 12..19 are back to back, but 16 is
	// the next cylinder's first.
	t.Run("page crossing", func(t *testing.T) {
		rig, s := oneStrand(t, 24, config{k: 8})
		before := rig.d.Stats().Reads
		rig.play(s, PlanOptions{ReadAhead: 8, Buffers: 16, Scattering: rig.scattering()}, 12, 8)
		rig.m.RunRound()
		if got := rig.d.Stats().Reads - before; got != 2 {
			t.Fatalf("8 back-to-back blocks across a cylinder took %d reads, want 2", got)
		}
	})
	// The turn's k: 16 blocks in one cylinder, 4 a turn.
	t.Run("k", func(t *testing.T) {
		rig, s := oneStrand(t, 16, config{k: 4})
		before := rig.d.Stats().Reads
		id := rig.play(s, PlanOptions{ReadAhead: 4, Buffers: 8, Scattering: rig.scattering()}, 0, 16)
		rig.m.RunRound()
		if p, _ := rig.m.Progress(id); p.BlocksServed != 4 || rig.d.Stats().Reads-before != 1 {
			t.Fatalf("a turn at k=4 delivered %d blocks in %d reads, want 4 in 1", p.BlocksServed, rig.d.Stats().Reads-before)
		}
	})
	// A pure delay between two intervals of the same blocks.
	t.Run("delay", func(t *testing.T) {
		rig, s := oneStrand(t, 16, config{k: 8})
		plan, err := PlanPlay(rig.d, "delayed", []Interval{
			{Strand: s, StartUnit: 0, NumUnits: 3},
			{Gap: 250 * time.Millisecond},
			{Strand: s, StartUnit: 3, NumUnits: 3},
		}, PlanOptions{ReadAhead: 7, Buffers: 16, Scattering: rig.scattering()})
		if err != nil {
			t.Fatal(err)
		}
		before := rig.d.Stats().Reads
		if _, _, err := rig.m.AdmitPlay(plan); err != nil {
			t.Fatal(err)
		}
		rig.m.RunRound()
		if got := rig.d.Stats().Reads - before; got != 2 {
			t.Fatalf("blocks 0-2, a delay, blocks 3-5 took %d reads, want 2", got)
		}
	})
	// Silence holders: an audio strand written under the run placement
	// stores its sounding blocks back to back — an eliminated block
	// takes no sectors — yet every silence ends the run before it.
	t.Run("silence", func(t *testing.T) {
		rig := newRig(t, shape{})
		s := rig.write(take{units: 400, seed: 11, audio: true, run: true, cyl: 300})
		// The pieces: stored stretches between silences, cut again where
		// a cylinder ends; and what the count would be if silence did
		// not end a run.
		spc := rig.d.Geometry().SectorsPerCylinder()
		pieces, unsplit := 0, 0
		var prev layout.PrimaryEntry
		prevStored, cyl := false, -1
		for i := 0; i < s.NumBlocks(); i++ {
			e, _ := s.Block(i)
			if e.Silent() {
				prevStored = false
				continue
			}
			joins := prev.Sector+prev.SectorCount == e.Sector && int(e.Sector+e.SectorCount-1)/spc == cyl
			if !prevStored || !joins {
				pieces++
			}
			if !joins {
				unsplit++
				cyl = int(e.Sector) / spc
			}
			prev, prevStored = e, true
		}
		if pieces == unsplit {
			t.Fatalf("no silence falls between back-to-back blocks (%d pieces)", pieces)
		}
		rig.m = rig.manager(config{policy: NaiveJump, k: s.NumBlocks()})
		before := rig.d.Stats()
		id := rig.play(s, PlanOptions{ReadAhead: s.NumBlocks(), Buffers: s.NumBlocks(), Scattering: 0.01}, 0, s.NumBlocks())
		rig.m.RunRound()
		if p, _ := rig.m.Progress(id); p.BlocksServed != s.NumBlocks() {
			t.Fatalf("one turn delivered %d of %d blocks", p.BlocksServed, s.NumBlocks())
		}
		if got := rig.d.Stats().Reads - before.Reads; got != uint64(pieces) {
			t.Fatalf("%d reads, want %d: one per stored stretch between silences (%d if silence joined them)", got, pieces, unsplit)
		}
	})
	// A leader's block the cache already holds: an earlier play of
	// blocks 4-5 left them in the LRU, so blocks 0-7 come as 0-3 from
	// the disk, 4-5 from the cache, 6-7 from the disk.
	t.Run("cache-resident block", func(t *testing.T) {
		rig, s := oneStrand(t, 16, config{k: 8, cache: 16 << 20})
		rig.play(s, PlanOptions{ReadAhead: 2, Buffers: 16, Scattering: rig.scattering()}, 4, 2)
		rig.m.RunUntilDone()
		before := rig.d.Stats().Reads
		id := rig.play(s, PlanOptions{ReadAhead: 8, Buffers: 16, Scattering: rig.scattering()}, 0, 8)
		rig.m.RunRound()
		p, _ := rig.m.Progress(id)
		if p.BlocksServed != 8 || p.CacheHits != 2 || p.CacheServed {
			t.Fatalf("leader progress %+v, want 8 blocks, 2 of them cache hits", p)
		}
		if got := rig.d.Stats().Reads - before; got != 2 {
			t.Fatalf("%d reads around two resident blocks, want 2", got)
		}
	})
	// A follower takes its blocks from the cache, one at a time, and
	// never reads the disk: the device's reads are the leader's runs.
	t.Run("follower", func(t *testing.T) {
		rig, s := oneStrand(t, 16, config{k: 4, cache: 16 << 20})
		leader := rig.play(s, PlanOptions{ReadAhead: 16, Buffers: 16, Scattering: rig.scattering()}, 0, 16)
		rig.m.RunRound()
		follower := rig.play(s, PlanOptions{ReadAhead: 16, Buffers: 16, Scattering: rig.scattering()}, 0, 16)
		if p, _ := rig.m.Progress(follower); !p.CacheServed {
			t.Fatalf("second play not cache-served: %+v", p)
		}
		rounds := uint64(0)
		before := rig.d.Stats().Reads
		for rig.m.RunRound() {
			rounds++
		}
		lp, _ := rig.m.Progress(leader)
		fp, _ := rig.m.Progress(follower)
		if fp.CacheHits != fp.BlocksTotal || fp.Violations != 0 || lp.Violations != 0 {
			t.Fatalf("leader %+v, follower %+v: want every follower block a hit, no violations", lp, fp)
		}
		// 12 leader blocks left, 4 a turn, one cylinder: 3 runs.
		if got := rig.d.Stats().Reads - before; got != 3 {
			t.Fatalf("%d reads while the follower trailed, want the leader's 3 runs", got)
		}
	})
	// A load-shed stream reads every other block, one block a step.
	t.Run("stride 2", func(t *testing.T) {
		rig, s := oneStrand(t, 16, config{k: 8})
		id := rig.play(s, PlanOptions{ReadAhead: 16, Buffers: 16, Scattering: rig.scattering()}, 0, 16)
		r, _ := rig.m.find(id)
		r.play.stride = 2
		before := rig.d.Stats().Reads
		rig.m.RunRound()
		p, _ := rig.m.Progress(id)
		if p.ShedBlocks != 7 || rig.d.Stats().Reads-before != 8 {
			t.Fatalf("stride 2: %d shed, %d reads; want 7 shed and each of the 8 fetched blocks read alone", p.ShedBlocks, rig.d.Stats().Reads-before)
		}
	})
}

// A fault on a run is retried block by block, so its outcome is the one
// each block would have had alone: a transient fault costs one retry and
// no block; a bad sector degrades only the block it lies in; with no
// retries allowed, a block whose own read fails again degrades and its
// neighbours are delivered.
func TestRunFaultFallsBackToBlocks(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bad      int // block holding a bad sector, -1 for none
		fail     int // transient failures forced on the next reads
		retries  int // FaultPolicy.MaxRetries
		wantRetr uint64
		wantDeg  []int
	}{
		{"transient", -1, 1, 2, 1, nil},
		{"bad sector", 2, 0, 2, 1, []int{2}},
		{"no retries", -1, 2, 0, 1, []int{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, shape{})
			s := rig.write(take{units: 8, seed: 3200, backToBack: true, cyl: 200})
			sc := inertScenario()
			if tc.bad >= 0 {
				e, _ := s.Block(tc.bad)
				sc.BadSectors = []fault.SectorRange{{Start: int(e.Sector) + 3, Count: 1}}
			}
			fd := fault.New(rig.d, sc)
			rig.m = rig.manager(config{dev: fd, policy: NaiveJump, k: 8})
			rig.m.ft.MaxRetries = tc.retries
			id := rig.play(s, PlanOptions{ReadAhead: 4, Buffers: 8, Scattering: rig.scattering()}, 0, 4)
			fd.FailNextReads(tc.fail)
			rig.m.RunUntilDone()
			st := rig.m.Stats()
			if st.Retries != tc.wantRetr || st.DegradedBlocks != uint64(len(tc.wantDeg)) {
				t.Fatalf("retries=%d degraded=%d, want %d and %d", st.Retries, st.DegradedBlocks, tc.wantRetr, len(tc.wantDeg))
			}
			v, _ := rig.m.Violations(id)
			if len(v) != len(tc.wantDeg) {
				t.Fatalf("violations %+v, want degraded blocks %v", v, tc.wantDeg)
			}
			for i, viol := range v {
				if viol.Cause != CauseDegraded || viol.Block != tc.wantDeg[i] {
					t.Fatalf("violations %+v, want degraded blocks %v", v, tc.wantDeg)
				}
			}
			if p, _ := rig.m.Progress(id); !p.Done || p.BlocksServed != p.BlocksTotal {
				t.Fatalf("play incomplete: %+v", p)
			}
		})
	}
}

// chargeProbe is the device plays read through in
// TestRunChargeNeverExceedsPerBlock: every timed read — a run — is held
// to what the per-block path would have been charged for it, the sum of
// its blocks' PeekServiceTime, each taken with the head where the block
// before left it. A shadow disk replays the reads to know where that is.
type chargeProbe struct {
	*disk.Disk
	t            *testing.T
	shadow       *disk.Disk
	blockSectors int
	buf          []byte
	reads, multi int
}

func (p *chargeProbe) ReadView(lba, n int, scratch []byte) ([]byte, time.Duration, error) {
	var perBlock time.Duration
	for off := 0; off < n; off += p.blockSectors {
		c := min(p.blockSectors, n-off)
		perBlock += p.shadow.PeekServiceTime(lba+off, c)
		if _, err := p.shadow.ReadInto(0, lba+off, c, p.buf); err != nil {
			p.t.Fatal(err)
		}
	}
	data, t, err := p.Disk.ReadView(lba, n, scratch)
	if t > perBlock {
		p.t.Errorf("a read of %d sectors at %d cost %v, the per-block path %v", n, lba, t, perBlock)
	}
	p.reads++
	if n > p.blockSectors {
		p.multi++
	}
	return data, t, err
}

// For random placements — strands written around random holes, so runs
// are cut by gaps and cylinder hops at random — played concurrently at a
// random k, no run ever costs more than its blocks' per-block charges.
// That is why admission's Eq. 18, which charges per block, still bounds
// every round.
func TestRunChargeNeverExceedsPerBlock(t *testing.T) {
	g := disk.DefaultGeometry()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rig := newRig(t, shape{geom: g})
		for i := 0; i < 40; i++ {
			if _, err := rig.a.AllocateNearCylinder(100+rng.Intn(40), 1+rng.Intn(60)); err != nil {
				t.Fatal(err)
			}
		}
		var strands []*strand.Strand
		for i := 0; i < 3; i++ {
			strands = append(strands, rig.write(take{units: 300, seed: seed*10 + int64(i), run: true, cyl: 100 + 10*i}))
		}
		shadow := disk.MustNew(g)
		if _, err := shadow.ReadInto(0, rig.d.HeadCylinder()*g.SectorsPerCylinder(), 1, make([]byte, g.SectorSize)); err != nil {
			t.Fatal(err)
		}
		probe := &chargeProbe{Disk: rig.d, t: t, shadow: shadow, blockSectors: strands[0].BlockSectors(g.SectorSize),
			buf: make([]byte, strands[0].BlockSectors(g.SectorSize)*g.SectorSize)}
		k := 2 + rng.Intn(10)
		rig.m = rig.manager(config{dev: probe, policy: NaiveJump, k: k})
		for _, s := range strands {
			rig.play(s, PlanOptions{ReadAhead: k, Buffers: 2 * k, Scattering: rig.scattering()})
		}
		rig.m.RunUntilDone()
		if probe.multi == 0 || probe.multi == probe.reads {
			t.Fatalf("seed %d: %d of %d reads were runs; the placement is not random enough", seed, probe.multi, probe.reads)
		}
	}
}
