package disk

import (
	"fmt"
	"time"
)

// The repair engine: a cursor-driven background copier over a mirrored
// array. One engine serves two jobs —
//
//   - rebuild: reconstruct a Dead (or hot-swapped) spindle from its
//     mirror twin, one spindle cylinder per chunk;
//   - rebalance: after AddMirrorPair, migrate stripe groups from their
//     pre-expansion homes to the post-expansion mapping, one cylinder
//     per chunk, closing the ROADMAP hot-add leftover.
//
// The engine itself only moves the cursor; pacing is the MSM's job. It
// peeks the next chunk's source-read cost and charges it against the
// round's measured slack (k·γ − n·α − n·k·β), so repair I/O never
// displaces an admitted stream's reads. Cylinders never written on the
// source (nil pages read as zeros on both twins) are skipped for free,
// so repair time scales with data stored, not raw capacity.
//
// All repair methods are single-threaded by the same convention as the
// rest of Array: the MSM drives them from round boundaries, never from
// inside a parallel sub-round.

type repairKind uint8

const (
	repairNone repairKind = iota
	repairRebuild
	repairRebalance
)

type repairState struct {
	kind   repairKind
	target int // rebuild: spindle being reconstructed; -1 otherwise
	cyl    int // rebuild: next local cylinder to copy on the target
	group  int // rebalance: logical stripe group being migrated
	inCyl  int // rebalance: next cylinder within that group
	total  int // chunk count for progress reporting
	done   int // chunks completed (free skips included)
}

type cylinderMaterializer interface{ CylinderMaterialized(int) bool }

// ReplaceSpindle swaps in a new device for spindle i — the hot swap of
// a failed drive. The replacement starts Dead (its platters hold
// nothing valid) until StartRebuild copies the twin's contents over.
func (a *Array) ReplaceSpindle(i int, d Device) error {
	if !a.mirrored {
		return fmt.Errorf("disk: spindle replacement requires a mirrored array")
	}
	if i < 0 || i >= len(a.spindles) {
		return fmt.Errorf("disk: replacement spindle %d out of range [0,%d)", i, len(a.spindles))
	}
	if a.repair.kind == repairRebuild && a.repair.target == i {
		return fmt.Errorf("disk: spindle %d is being rebuilt; abort the repair first", i)
	}
	g := d.Geometry()
	g.Heads = a.phys.Heads
	if g != a.phys {
		return fmt.Errorf("disk: replacement spindle geometry differs from the array's")
	}
	a.spindles[i] = d
	a.health[i] = spindleHealth{state: Dead}
	return nil
}

// StartRebuild begins reconstructing spindle target from its mirror
// twin. The target must be Dead — either killed by the health machine
// or freshly swapped in via ReplaceSpindle — and the twin readable.
func (a *Array) StartRebuild(target int) error {
	if !a.mirrored {
		return fmt.Errorf("disk: rebuild requires a mirrored array")
	}
	if a.repair.kind != repairNone {
		return fmt.Errorf("disk: a repair is already running")
	}
	if target < 0 || target >= len(a.spindles) {
		return fmt.Errorf("disk: rebuild target %d out of range [0,%d)", target, len(a.spindles))
	}
	if st := a.health[target].state; st != Dead {
		return fmt.Errorf("disk: rebuild target %d is %s, want dead", target, st)
	}
	if !readable(a.health[a.Twin(target)].state) {
		return fmt.Errorf("disk: spindle %d's mirror twin is not readable", target)
	}
	a.health[target] = spindleHealth{state: Rebuilding}
	a.repair = repairState{kind: repairRebuild, target: target, total: a.phys.Cylinders}
	return nil
}

// AddMirrorPair grows a mirrored array by one pair. The new spindles
// must match the existing geometry. Existing stripe groups keep their
// logical addresses, but most acquire a new physical home under the
// widened group%(p/2) mapping; until StartRebalance migrates them they
// are still served from (and written at) their old homes via the moved
// bitmap. Growing the spindle count invalidates per-spindle service
// state — callers rebuild the MSM (core.FS.NewManager) afterwards.
func (a *Array) AddMirrorPair(d0, d1 Device) error {
	if !a.mirrored {
		return fmt.Errorf("disk: hot-add requires a mirrored array")
	}
	if a.repair.kind != repairNone {
		return fmt.Errorf("disk: a repair is already running")
	}
	if a.moved != nil {
		return fmt.Errorf("disk: previous expansion not yet rebalanced")
	}
	for _, d := range []Device{d0, d1} {
		g := d.Geometry()
		g.Heads = a.phys.Heads
		if g != a.phys {
			return fmt.Errorf("disk: added spindle geometry differs from the array's")
		}
	}
	oldMg := a.mg
	oldGroups := a.logical.Cylinders / a.sc
	a.spindles = append(a.spindles, d0, d1)
	a.mg++
	a.logical.Cylinders = a.phys.Cylinders * a.mg
	a.logical.Heads = len(a.spindles)
	a.health = append(a.health, spindleHealth{}, spindleHealth{})
	a.steer = append(a.steer, steerBoth)
	a.oldMg = oldMg
	a.moved = make([]bool, oldGroups)
	for g := range a.moved {
		// Groups whose pair and slot coincide under both mappings
		// need no migration; only the first oldMg groups qualify.
		a.moved[g] = g%oldMg == g%a.mg && g/oldMg == g/a.mg
	}
	return nil
}

// StartRebalance begins migrating stripe groups to their
// post-expansion homes. Migration order is ascending group index,
// which guarantees a group's destination slot has already been vacated
// by the time it is written (the old occupant of slot s on pair q is
// group s·oldMg+q < s·mg+q, already moved).
func (a *Array) StartRebalance() error {
	if a.repair.kind != repairNone {
		return fmt.Errorf("disk: a repair is already running")
	}
	if a.moved == nil {
		return fmt.Errorf("disk: no pending expansion; call AddMirrorPair first")
	}
	movers := 0
	for _, m := range a.moved {
		if !m {
			movers++
		}
	}
	a.repair = repairState{kind: repairRebalance, target: -1, total: movers * a.sc}
	return nil
}

// Relocating reports whether a rebalance is pending or running — from
// AddMirrorPair until the last group reaches its new home. It is the one
// time the array rewrites pages that hold live data in place (a migrated
// group lands on a page another group vacated), so a view lent before or
// during it (ReadView, ViewAt) is not good beyond the round: whoever
// retains lent bytes for longer owns copies for the duration.
//
// rt:hotpath
func (a *Array) Relocating() bool { return a.moved != nil }

// RepairActive reports whether a rebuild or rebalance is in progress.
func (a *Array) RepairActive() bool { return a.repair.kind != repairNone }

// RebuildTarget reports the spindle being rebuilt, or -1.
func (a *Array) RebuildTarget() int {
	if a.repair.kind != repairRebuild {
		return -1
	}
	return a.repair.target
}

// RepairProgress reports chunks completed and the total chunk count
// (both zero when no repair is active).
func (a *Array) RepairProgress() (done, total int) {
	if a.repair.kind == repairNone {
		return 0, 0
	}
	return a.repair.done, a.repair.total
}

// RepairBufferSectors reports the chunk buffer size RepairChunk needs:
// one spindle cylinder.
func (a *Array) RepairBufferSectors() int { return a.spc }

// AbortRepair cancels a running repair. A rebuild target drops back to
// Dead (its copy is incomplete); a rebalance keeps the groups already
// migrated and can be restarted with StartRebalance.
func (a *Array) AbortRepair() {
	if a.repair.kind == repairRebuild {
		a.health[a.repair.target] = spindleHealth{state: Dead}
	}
	a.repair = repairState{target: -1}
}

func (a *Array) finishRepair() {
	switch a.repair.kind {
	case repairRebuild:
		a.health[a.repair.target] = spindleHealth{state: Healthy}
	case repairRebalance:
		a.moved = nil
		a.oldMg = 0
	}
	a.repair = repairState{target: -1}
}

// PeekRepairChunk estimates the source-read cost of the next chunk —
// the charge the MSM weighs against round slack — or ok=false when no
// chunk remains (a repair whose cursor has reached the end is
// finalized here, so callers see completion without copying).
func (a *Array) PeekRepairChunk() (time.Duration, bool) {
	switch a.repair.kind {
	case repairRebuild:
		a.advanceRebuildCursor()
		if a.repair.cyl >= a.phys.Cylinders {
			a.finishRepair()
			return 0, false
		}
		src := a.Twin(a.repair.target)
		return a.spindles[src].PeekServiceTime(0, a.repair.cyl*a.spc, a.spc), true
	case repairRebalance:
		a.advanceRebalanceCursor()
		if a.repair.group >= len(a.moved) {
			a.finishRepair()
			return 0, false
		}
		g := a.repair.group
		srcSp := a.readSpindle(g%a.oldMg, g/a.oldMg)
		srcLocal := ((g/a.oldMg)*a.sc + a.repair.inCyl) * a.spc
		return a.spindles[srcSp].PeekServiceTime(0, srcLocal, a.spc), true
	}
	return 0, false
}

// RepairChunk copies the next chunk (one spindle cylinder), returning
// the timed charge (source read, plus destination writes for a
// rebalance — a rebuild target is idle, so its write is free
// parallelism) and done=true when the repair completed. buf must hold
// RepairBufferSectors() sectors.
func (a *Array) RepairChunk(buf []byte) (t time.Duration, done bool, err error) {
	switch a.repair.kind {
	case repairRebuild:
		return a.rebuildChunk(buf)
	case repairRebalance:
		return a.rebalanceChunk(buf)
	}
	return 0, true, nil
}

// advanceRebuildCursor skips cylinders with no materialized data on
// the source twin; both twins read such cylinders as zeros, so they
// complete for free.
func (a *Array) advanceRebuildCursor() {
	cm, ok := a.spindles[a.Twin(a.repair.target)].(cylinderMaterializer)
	for a.repair.cyl < a.phys.Cylinders {
		if !ok || cm.CylinderMaterialized(a.repair.cyl) {
			return
		}
		a.repair.cyl++
		a.repair.done++
	}
}

func (a *Array) rebuildChunk(buf []byte) (time.Duration, bool, error) {
	a.advanceRebuildCursor()
	if a.repair.cyl >= a.phys.Cylinders {
		a.finishRepair()
		return 0, true, nil
	}
	tgt, src := a.repair.target, a.Twin(a.repair.target)
	local := a.repair.cyl * a.spc
	t, err := a.spindles[src].ReadInto(0, local, a.spc, buf)
	a.observeRead(src, 0, t, err)
	if err != nil {
		return t, false, err
	}
	if _, err := a.spindles[tgt].Write(0, local, buf); err != nil {
		return t, false, err
	}
	a.repair.cyl++
	a.repair.done++
	a.advanceRebuildCursor()
	if a.repair.cyl >= a.phys.Cylinders {
		a.finishRepair()
		return t, true, nil
	}
	return t, false, nil
}

// advanceRebalanceCursor skips groups already at their new homes and
// source cylinders with no materialized data (the destination then
// reads the same zeros the source would have).
func (a *Array) advanceRebalanceCursor() {
	for a.repair.group < len(a.moved) {
		g := a.repair.group
		if a.moved[g] {
			a.repair.group++
			a.repair.inCyl = 0
			continue
		}
		srcSp := a.readSpindle(g%a.oldMg, g/a.oldMg)
		cm, ok := a.spindles[srcSp].(cylinderMaterializer)
		for a.repair.inCyl < a.sc {
			localCyl := (g/a.oldMg)*a.sc + a.repair.inCyl
			if !ok || cm.CylinderMaterialized(localCyl) {
				return
			}
			a.repair.inCyl++
			a.repair.done++
		}
		a.moved[g] = true
		a.repair.group++
		a.repair.inCyl = 0
	}
}

func (a *Array) rebalanceChunk(buf []byte) (time.Duration, bool, error) {
	a.advanceRebalanceCursor()
	if a.repair.group >= len(a.moved) {
		a.finishRepair()
		return 0, true, nil
	}
	g, c := a.repair.group, a.repair.inCyl
	srcSp := a.readSpindle(g%a.oldMg, g/a.oldMg)
	srcLocal := ((g/a.oldMg)*a.sc + c) * a.spc
	t, err := a.spindles[srcSp].ReadInto(0, srcLocal, a.spc, buf)
	a.observeRead(srcSp, 0, t, err)
	if err != nil {
		return t, false, err
	}
	dstPair, dstSlot := g%a.mg, g/a.mg
	dstLocal := (dstSlot*a.sc + c) * a.spc
	wt, err := a.writePair(dstPair, dstLocal, buf, true)
	if err != nil {
		return t, false, err
	}
	a.repair.inCyl++
	a.repair.done++
	if a.repair.inCyl == a.sc {
		a.moved[g] = true
		a.repair.group++
		a.repair.inCyl = 0
	}
	a.advanceRebalanceCursor()
	if a.repair.group >= len(a.moved) {
		a.finishRepair()
		return t + wt, true, nil
	}
	return t + wt, false, nil
}
