package disk

import (
	"fmt"
	"time"
)

// The repair engine: a cursor-driven background copier over a mirrored
// array that reconstructs a Dead (or hot-swapped) spindle from its
// mirror twin, one spindle cylinder per chunk. It writes only the idle
// target: no live strand byte is ever rewritten or relocated.
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

// repairState is the rebuild cursor. No repair runs while target < 0,
// which is how NewArray leaves every array, mirrored or not.
type repairState struct {
	target int // spindle being reconstructed; -1 when idle
	cyl    int // next local cylinder to copy on the target
	total  int // chunk count for progress reporting
	done   int // chunks completed (free skips included)
}

type cylinderMaterializer interface{ CylinderMaterialized(int) bool }

// ReplaceSpindle swaps in a new device for spindle i — the hot swap of
// a failed drive. The replacement starts Dead (its platters hold
// nothing valid) until StartRebuild copies the twin's contents over.
func (a *Array) ReplaceSpindle(i int, d Device) error {
	if !a.Mirrored() {
		return fmt.Errorf("disk: spindle replacement requires a mirrored array")
	}
	if i < 0 || i >= len(a.spindles) {
		return fmt.Errorf("disk: replacement spindle %d out of range [0,%d)", i, len(a.spindles))
	}
	if a.repair.target == i {
		return fmt.Errorf("disk: spindle %d is being rebuilt; abort the repair first", i)
	}
	if d.Geometry() != a.phys {
		return fmt.Errorf("disk: replacement spindle geometry differs from the array's")
	}
	fresh, ok := d.(busyMeterer)
	if !ok {
		return fmt.Errorf("disk: replacement spindle is not built on a *Disk")
	}
	// The old spindle's busy time leaves the array's total with it, as
	// its stats leave Stats().
	a.spindles[i].(busyMeterer).meterBusy(nil)
	fresh.meterBusy(&a.busy)
	a.spindles[i] = d
	a.health[i] = spindleHealth{state: Dead}
	return nil
}

// StartRebuild begins reconstructing spindle target from its mirror
// twin. The target must be Dead — either killed by the health machine
// or freshly swapped in via ReplaceSpindle — and the twin readable.
func (a *Array) StartRebuild(target int) error {
	if !a.Mirrored() {
		return fmt.Errorf("disk: rebuild requires a mirrored array")
	}
	if a.RepairActive() {
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
	a.repair = repairState{target: target, total: a.phys.Cylinders}
	return nil
}

// RepairActive reports whether a rebuild is in progress.
func (a *Array) RepairActive() bool { return a.repair.target >= 0 }

// RebuildTarget reports the spindle being rebuilt, or -1.
func (a *Array) RebuildTarget() int { return a.repair.target }

// RepairProgress reports chunks completed and the total chunk count
// (both zero when no repair is active).
func (a *Array) RepairProgress() (done, total int) {
	if !a.RepairActive() {
		return 0, 0
	}
	return a.repair.done, a.repair.total
}

// RepairBufferSectors reports the chunk buffer size RepairChunk needs:
// one spindle cylinder.
func (a *Array) RepairBufferSectors() int { return a.spc }

// AbortRepair cancels a running rebuild; the target drops back to Dead
// (its copy is incomplete).
func (a *Array) AbortRepair() {
	if a.RepairActive() {
		a.endRepair(Dead)
	}
}

// endRepair leaves the target in the given state and idles the cursor.
func (a *Array) endRepair(s SpindleState) {
	a.health[a.repair.target] = spindleHealth{state: s}
	a.repair = repairState{target: -1}
}

// nextRepairCylinder moves the cursor past cylinders with no
// materialized data on the source twin — both twins read such cylinders
// as zeros, so they complete for free — and reports whether a cylinder
// remains to copy; a cursor at the end finishes the repair, the target
// Healthy.
func (a *Array) nextRepairCylinder() bool {
	if !a.RepairActive() {
		return false
	}
	cm, ok := a.spindles[a.Twin(a.repair.target)].(cylinderMaterializer)
	for ; a.repair.cyl < a.phys.Cylinders; a.repair.cyl++ {
		if !ok || cm.CylinderMaterialized(a.repair.cyl) {
			return true
		}
		a.repair.done++
	}
	a.endRepair(Healthy)
	return false
}

// PeekRepairChunk estimates the source-read cost of the next chunk —
// the charge the MSM weighs against round slack — or ok=false when no
// chunk remains (a repair whose cursor has reached the end is
// finalized here, so callers see completion without copying).
func (a *Array) PeekRepairChunk() (time.Duration, bool) {
	if !a.nextRepairCylinder() {
		return 0, false
	}
	src := a.Twin(a.repair.target)
	return a.spindles[src].PeekServiceTime(a.repair.cyl*a.spc, a.spc), true
}

// RepairChunk copies the next chunk (one spindle cylinder), returning
// the timed charge of the source read (the target is idle, so its write
// is free parallelism) and done=true when the repair completed. buf
// must hold RepairBufferSectors() sectors.
func (a *Array) RepairChunk(buf []byte) (t time.Duration, done bool, err error) {
	if !a.nextRepairCylinder() {
		return 0, true, nil
	}
	tgt, src := a.repair.target, a.Twin(a.repair.target)
	local := a.repair.cyl * a.spc
	t, err = a.spindles[src].ReadInto(0, local, a.spc, buf)
	a.observeRead(src, 0, t, err)
	if err != nil {
		return t, false, err
	}
	if _, err := a.spindles[tgt].Write(local, buf); err != nil {
		return t, false, err
	}
	a.repair.cyl++
	a.repair.done++
	return t, !a.nextRepairCylinder(), nil
}
