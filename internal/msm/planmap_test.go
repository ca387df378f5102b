package msm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/layout"
	"mmfs/internal/strand"
)

// The oracles: the per-round walks the plan map replaced, kept as they
// were (the window walk takes its window length instead of reading k).

// nextMedia returns the strand entry of the first media block at or
// after plan index from, and its plan index: the next block that costs
// a disk access, looking through pure delays (nil readers), silence
// holders, and entries the strand cannot resolve. ok is false when no
// such block remains.
func nextMedia(blocks []PlannedBlock, from int) (layout.PrimaryEntry, int, bool) {
	for j := from; j < len(blocks); j++ {
		b := blocks[j]
		if b.Reader == nil {
			continue
		}
		e, err := b.Reader.Strand().Block(b.Index)
		if err != nil || e.Silent() {
			continue
		}
		return e, j, true
	}
	return layout.PrimaryEntry{}, 0, false
}

// stored reports whether the planned block's bytes live on the platters:
// it is neither a silence holder (regenerated from the strand on read,
// at no disk time) nor an entry the strand cannot resolve (which the
// read reports).
func stored(b PlannedBlock) bool {
	e, err := b.Reader.Strand().Block(b.Index)
	return err == nil && !e.Silent()
}

// laneSpindleWalk is the lane router's block-by-block walk over the
// stored blocks of the window's span positions from the request's
// position.
func (m *Manager) laneSpindleWalk(r *request, span int) (int, bool) {
	if len(m.lanes) == 0 || r.kind != Play || r.cacheServed || r.play.stream.Open() {
		return 0, false
	}
	ps := r.play
	window := ps.plan.Blocks
	if end := ps.nextFetch + span; end < len(window) {
		window = window[:end]
	}
	// A stripe group lies on one spindle, so the spindle is looked up
	// only when the window enters another group.
	sp, group := -1, -1
	for j := ps.nextFetch; j < len(window); j++ {
		e, at, ok := nextMedia(window, j)
		if !ok {
			break
		}
		g := int(e.Sector) / m.groupSec
		if (int(e.Sector)+int(e.SectorCount)-1)/m.groupSec != g {
			return 0, false
		}
		if g != group {
			s, _ := m.array.Locate(g * m.groupSec)
			if sp >= 0 && s != sp {
				return 0, false
			}
			sp, group = s, g
		}
		j = at
	}
	// sp < 0: no disk work in the window (pure delay / silence); the
	// serial lane advances it for free.
	return sp, sp >= 0
}

// extentTable is a play plan's suffix table: entry j is the set of stripe
// group classes (disk.Array.SteerClasses) the stored blocks of plan[j:]
// occupy, a block that straddles groups counting in each. nil — a single
// device, or more classes than a word has bits — means the extent is
// unknown.
func (m *Manager) extentTable(blocks []PlannedBlock) []uint64 {
	if m.classes == 0 {
		return nil
	}
	t := make([]uint64, len(blocks)+1)
	for j := len(blocks) - 1; j >= 0; j-- {
		t[j] = t[j+1]
		if e, _, ok := nextMedia(blocks[j:j+1], 0); ok {
			first := int(e.Sector) / m.groupSec
			last := (int(e.Sector) + int(e.SectorCount) - 1) / m.groupSec
			for g := first; g <= last; g++ {
				t[j] |= 1 << (g % m.classes)
			}
		}
	}
	return t
}

// spindlesAtTable reads an extent table at plan position j and maps the
// classes there to the spindles that serve them now; a nil table reads
// as unknown.
func (m *Manager) spindlesAtTable(extents []uint64, j int) uint64 {
	if extents == nil {
		return 0
	}
	var sps uint64
	for c := extents[j]; c != 0; c &= c - 1 {
		sp, _ := m.array.Locate(bits.TrailingZeros64(c) * m.groupSec)
		sps |= 1 << sp
	}
	return sps
}

// fetchedPositions lists the plan positions a turn of k fetches from
// position j reads, the way servicePlay walks them: a load-shed stream
// first skips to a position a whole number of strides from base, then
// fetches every stride-th one.
func fetchedPositions(j, k, stride, base, n int) []int {
	if stride < 1 {
		stride = 1
	}
	for j < n && (j-base)%stride != 0 {
		j++
	}
	var out []int
	for ; len(out) < k && j < n; j += stride {
		out = append(out, j)
	}
	return out
}

// strideWindow is the oracle's window: the positions from j through the
// turn's last fetch.
func strideWindow(j, k, stride, base int) int {
	const far = 1 << 30 // past any plan: fetchedPositions stops at n
	fetched := fetchedPositions(j, k, stride, base, far)
	return fetched[len(fetched)-1] - j + 1
}

// randomStrand builds a strand over random entries of the array's
// logical address space: runs of back-to-back 27-sector blocks, jumps,
// silence holders, and blocks placed across a stripe-group boundary.
func randomStrand(t *testing.T, rng *rand.Rand, arr *disk.Array, st *strand.Store, groupSec, blocks int) *strand.Strand {
	t.Helper()
	const count = 27
	total := arr.Geometry().TotalSectors()
	entries := make([]layout.PrimaryEntry, blocks)
	next := rng.Intn(total - count)
	for i := range entries {
		switch c := rng.Intn(20); {
		case c == 0:
			entries[i] = layout.SilenceEntry()
			continue
		case c == 1: // straddle a group boundary
			g := 1 + rng.Intn(total/groupSec-1)
			next = g*groupSec - 1 - rng.Intn(count-1)
		case c <= 3: // a jump
			next = rng.Intn(total - count)
		}
		if next+count > total {
			next = rng.Intn(total - count)
		}
		entries[i] = layout.PrimaryEntry{Sector: uint32(next), SectorCount: count}
		next += count
	}
	s, err := st.BuildFromEntries(strand.BuildMeta{
		ID: st.NewID(), Medium: layout.Video, Rate: 10, UnitBytes: 54000, Granularity: 1, UnitCount: uint64(blocks),
	}, entries)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomPlan compiles an interval list over the strands: stretches of
// one strand at consecutive units, junctions to another strand (or to
// elsewhere in the same one), and gaps, which compile to pure delays.
func randomPlan(t *testing.T, rng *rand.Rand, d disk.Device, strands []*strand.Strand, n int) PlayPlan {
	t.Helper()
	var ivs []Interval
	cur, idx := 0, 0
	for blocks := 0; blocks < n; {
		if rng.Intn(12) == 0 {
			ivs = append(ivs, Interval{Gap: 100 * time.Millisecond})
			blocks++
			continue
		}
		if idx >= strands[cur].NumBlocks() || rng.Intn(3) == 0 { // a junction
			cur = rng.Intn(len(strands))
			idx = rng.Intn(strands[cur].NumBlocks())
		}
		units := min(1+rng.Intn(30), strands[cur].NumBlocks()-idx, n-blocks)
		ivs = append(ivs, Interval{Strand: strands[cur], StartUnit: uint64(idx), NumUnits: uint64(units)})
		idx += units
		blocks += units
	}
	plan, err := PlanPlay(d, "random", ivs, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// The compiler's plan map answers what the per-round walks it replaced
// answered: at every position of random plans — delays, silence holders,
// junctions across strands, blocks straddling stripe groups — on
// 2- and 4-spindle arrays and on a mirrored array that loses a spindle
// mid-play, for k in 1..40 and stride 1..4, the lane router equals the
// window walk over the stride-corrected window, the extent equals the
// suffix table's, and the next stored block equals nextMedia's.
func TestPlanMapMatchesTheWalks(t *testing.T) {
	type rigCase struct {
		name   string
		arr    *disk.Array
		st     *strand.Store
		m      *Manager
		loseAt int // position at which spindle 0 dies; -1: never
	}
	var rigs []rigCase
	for _, p := range []int{2, 4} {
		rig := newRig(t, shape{spindles: p, stripe: 4})
		rigs = append(rigs, rigCase{fmt.Sprintf("striped p=%d", p), rig.arr, rig.st, rig.m, -1})
	}
	mir := newRig(t, shape{spindles: 4, stripe: 4, mirror: true})
	rigs = append(rigs, rigCase{"mirrored p=4", mir.arr, mir.st, mir.m, 60})

	for ri, rc := range rigs {
		rng := rand.New(rand.NewSource(int64(31 + ri)))
		m := rc.m
		for plan := 0; plan < 4; plan++ {
			if rc.loseAt >= 0 {
				for i := 0; i < rc.arr.Spindles(); i++ {
					rc.arr.SetSpindleState(i, disk.Healthy)
				}
				rc.arr.RefreshSteering()
			}
			var strands []*strand.Strand
			for i := 0; i < 3; i++ {
				strands = append(strands, randomStrand(t, rng, rc.arr, rc.st, m.groupSec, 40+rng.Intn(80)))
			}
			pl := randomPlan(t, rng, rc.arr, strands, 120)
			blocks, pm := pl.Blocks, pl.comp.pm
			ext := m.extentTable(blocks)
			r := &request{kind: Play, play: &playState{plan: pl, pm: pm}}
			ps := r.play
			for j := 0; j <= len(blocks); j++ {
				if j == rc.loseAt {
					rc.arr.SetSpindleState(0, disk.Dead)
					rc.arr.RefreshSteering()
				}
				ps.nextFetch = j
				where := func() string {
					return fmt.Sprintf("%s, plan %d, position %d", rc.name, plan, j)
				}
				// The next stored block.
				e, at, ok := nextMedia(blocks, j)
				got, gotOK := r.nextStored()
				if gotOK != ok || (ok && (int(pm[j].next) != at || got.sector != e.Sector)) {
					t.Fatalf("%s: next stored block (%d, sector %d, %v), the walk says (%d, sector %d, %v)",
						where(), pm[j].next, got.sector, gotOK, at, e.Sector, ok)
				}
				if j < len(blocks) && blocks[j].Reader != nil && (int(pm[j].next) == j) != stored(blocks[j]) {
					t.Fatalf("%s: stored %v, the strand says %v", where(), int(pm[j].next) == j, stored(blocks[j]))
				}
				// The extent.
				if got, want := m.extent(r), m.spindlesAtTable(ext, j); got != want {
					t.Fatalf("%s: extent %b, the suffix table says %b", where(), got, want)
				}
				// The lane router.
				for stride := 1; stride <= 4; stride++ {
					ps.stride, ps.strideBase = stride, 0
					if stride > 1 {
						ps.strideBase = rng.Intn(j + 1)
					}
					for k := 1; k <= 40; k++ {
						m.k = k
						sp, ok := m.laneSpindle(r)
						wsp, wok := m.laneSpindleWalk(r, strideWindow(j, k, stride, ps.strideBase))
						if ok != wok || (ok && sp != wsp) {
							t.Fatalf("%s, k=%d, stride %d (base %d): router (%d, %v), the walk says (%d, %v)",
								where(), k, stride, ps.strideBase, sp, ok, wsp, wok)
						}
					}
				}
			}
		}
	}
}

// A load-shed stream's turn fetches k blocks a stride apart, so it reaches
// (k−1)·stride+1 plan positions past the blocks it skips first. The lane
// router must look that far: a router that checked only the next k
// positions handed a stride-2 play spindle A's lane while its turn went on
// to read spindle B, booking B's actuator twice in the round's virtual
// time. The rig: 2 spindles of 4-cylinder stripe groups, a back-to-back
// strand from cylinder 2 (it enters a new group every 64 blocks), k = 8.
func TestLaneRouterCoversTheStride(t *testing.T) {
	const p, stripe, k, stride, blocks = 2, 4, 8, 2, 400
	rig := newRig(t, shape{spindles: p, stripe: stripe})
	s := rig.write(take{units: blocks, seed: 3200, backToBack: true, cyl: 2})
	rig.m = rig.manager(config{policy: NaiveJump, k: k})
	m := rig.m
	r, err := m.find(rig.play(s, PlanOptions{ReadAhead: 1, Buffers: 2 * k, Scattering: rig.scattering()}))
	if err != nil {
		t.Fatal(err)
	}
	ps := r.play
	ps.stride, ps.strideBase = stride, 0
	routed, strays := 0, 0
	for j := 0; j < blocks; j++ {
		ps.nextFetch = j
		sp, ok := m.laneSpindle(r)
		if !ok {
			continue
		}
		routed++
		for _, f := range fetchedPositions(j, k, stride, ps.strideBase, blocks) {
			e, err := s.Block(ps.plan.Blocks[f].Index)
			if err != nil {
				t.Fatal(err)
			}
			if on, one := rig.arr.SpindleRange(int(e.Sector), int(e.SectorCount)); !one || on != sp {
				strays++
				t.Logf("position %d rides spindle %d's lane, but its turn reads block %d on spindle %d", j, sp, f, on)
				break
			}
		}
	}
	if routed == 0 {
		t.Fatal("no position rode a parallel lane")
	}
	if strays > 0 {
		t.Fatalf("%d of %d lane-routed positions read a block on another spindle", strays, routed)
	}
}
