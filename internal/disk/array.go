package disk

import (
	"fmt"
	"time"

	"mmfs/internal/obs"
)

// Array is a Device composed of p underlying spindles with the strand
// media blocks striped across them, the substrate for the paper's
// concurrent retrieval architecture of degree p (§3.1). Each spindle is
// an independent Device — typically a *Disk, optionally wrapped in an
// internal/fault scenario so one degraded spindle degrades only the
// streams striped onto it.
//
// A spindle is a *Disk or a layer embedding one (a fault scenario): the
// array meters its busy time (BusyTime).
//
// Striping is by cylinder group: the array exposes a logical geometry
// identical to one spindle's but with p times the cylinders, and
// logical cylinders are dealt to spindles in runs of StripeCylinders()
// ("groups") round-robin. Consecutive groups assigned to the same
// spindle are physically adjacent there, so a strand laid out by
// constrained allocation on the logical geometry advances each spindle's
// head ~one local cylinder per block it stores on that spindle — the
// per-spindle scattering bound survives striping.
//
// An access that stays inside one group costs exactly what the owning
// spindle charges. Accesses crossing a group boundary are split into
// per-group spans and charge the sum of the span times (a sequential
// hand-off); the storage manager keeps such accesses off the parallel
// lanes, so only metadata and the rare boundary-crossing run pays it.
//
// Like *Disk, an Array is not safe for arbitrary concurrent use — but
// accesses routed to distinct spindles touch disjoint state, which is
// precisely the discipline the MSM's per-spindle round lanes follow.
type Array struct {
	spindles []Device
	phys     Geometry // one spindle's geometry
	logical  Geometry // what the array advertises: p× the cylinders
	sc       int      // stripe unit in cylinders
	spc      int      // sectors per cylinder (same on every spindle)
	groupSec int      // sectors per stripe group: sc * spc

	// The one address map: the p spindles form sets = p/r replica sets of
	// r spindles each (r = 1 striped; r = 2 mirrored, see mirror.go), and
	// stripe group g lives in slot g/sets of set g%sets, at the same local
	// address on every replica. Logical capacity is sets spindles' worth.
	// The map is fixed here, at construction: a stored byte never moves.
	// A read goes to the replica the set's frozen steer entry names; a
	// write goes to every writable replica of the set.
	r      int
	sets   int
	health []spindleHealth // per spindle; observed only when r = 2
	steer  []steerMode     // per set
	// steerGen counts the steer table's changes (SteerGeneration).
	steerGen uint64

	// busy is the spindles' busy time, which each charges as it charges
	// its own stats (Disk.meterBusy): Stats().BusyTime() without the sum.
	busy time.Duration

	repair repairState
}

// busyMeterer is what a spindle must be for the array to meter its busy
// time: a *Disk, or a layer embedding one.
type busyMeterer interface{ meterBusy(*time.Duration) }

var _ Device = (*Array)(nil)

// NewArray builds an array over the given spindles with a stripe unit
// of stripeCylinders. All spindles must share one geometry, and the
// stripe unit must divide the per-spindle cylinder count so that every
// group is whole. With mirror set the spindles — an even number of
// them — are paired into p/2 mirror groups, each pair holding two
// copies of its stripe groups (see mirror.go).
func NewArray(spindles []Device, stripeCylinders int, mirror bool) (*Array, error) {
	if len(spindles) < 1 {
		return nil, fmt.Errorf("disk: array needs at least 1 spindle")
	}
	if mirror && len(spindles)%2 != 0 {
		return nil, fmt.Errorf("disk: mirrored array needs an even spindle count >= 2, have %d", len(spindles))
	}
	phys := spindles[0].Geometry()
	for i, sp := range spindles {
		if sp.Geometry() != phys {
			return nil, fmt.Errorf("disk: spindle %d geometry differs from spindle 0", i)
		}
		if _, ok := sp.(busyMeterer); !ok {
			return nil, fmt.Errorf("disk: spindle %d is not built on a *Disk", i)
		}
	}
	if stripeCylinders < 1 {
		return nil, fmt.Errorf("disk: stripe unit must be >= 1 cylinder, have %d", stripeCylinders)
	}
	if phys.Cylinders%stripeCylinders != 0 {
		return nil, fmt.Errorf("disk: stripe unit %d does not divide %d cylinders per spindle",
			stripeCylinders, phys.Cylinders)
	}
	r := 1
	if mirror {
		r = 2
	}
	sets := len(spindles) / r
	logical := phys
	logical.Cylinders = phys.Cylinders * sets
	a := &Array{
		spindles: spindles,
		phys:     phys,
		logical:  logical,
		sc:       stripeCylinders,
		spc:      phys.SectorsPerCylinder(),
		groupSec: stripeCylinders * phys.SectorsPerCylinder(),
		r:        r,
		sets:     sets,
		health:   make([]spindleHealth, len(spindles)),
		steer:    make([]steerMode, sets),
		steerGen: 1,
		repair:   repairState{target: -1},
	}
	for _, sp := range spindles {
		sp.(busyMeterer).meterBusy(&a.busy)
	}
	if !mirror {
		for set := range a.steer {
			a.steer[set] = steerTo0 // a set of one has one replica to read
		}
	}
	a.RefreshSteering()
	return a, nil
}

// MustNewArray is NewArray but panics on invalid configuration; for
// tests and fixed experiment setups.
func MustNewArray(spindles []Device, stripeCylinders int, mirror bool) *Array {
	a, err := NewArray(spindles, stripeCylinders, mirror)
	if err != nil {
		panic(err)
	}
	return a
}

// Geometry returns the array's logical geometry: one spindle's shape
// with Cylinders multiplied by the replica-set count. Its MaxAccessTime
// and TransferRateBits equal a single spindle's, which is what makes the
// per-spindle continuity equations read straight off it.
func (a *Array) Geometry() Geometry { return a.logical }

// Spindles reports the number of spindles: the degree of concurrency p,
// one actuator each.
func (a *Array) Spindles() int { return len(a.spindles) }

// Spindle returns spindle i's device; the MSM's per-spindle lanes
// address their spindle through it.
func (a *Array) Spindle(i int) Device { return a.spindles[i] }

// StripeCylinders reports the stripe unit in logical cylinders.
func (a *Array) StripeCylinders() int { return a.sc }

// Locate maps a logical sector address to (spindle, local address on
// that spindle).
//
// rt:hotpath
func (a *Array) Locate(lba int) (spindle, local int) {
	cyl := lba / a.spc
	off := lba % a.spc
	group := cyl / a.sc
	inGroup := cyl % a.sc
	set, slot := group%a.sets, group/a.sets
	localCyl := slot*a.sc + inGroup
	return a.readSpindle(set, slot), localCyl*a.spc + off
}

// GroupStart is Locate's inverse: the first logical cylinder of the
// group-th stripe group spindle serves — mirrored, of the group-th slot
// of its pair that the balanced steering reads from it.
func (a *Array) GroupStart(spindle, group int) int {
	slot := group
	if a.r == 2 {
		slot = spindle%2 + 2*group // the slot's parity picks the twin
	}
	return (slot*a.sets + spindle/a.r) * a.sc
}

// SteerClasses reports after how many stripe groups the group → spindle
// map repeats, whatever the steering: group g is read from the spindle
// group g mod SteerClasses() is read from. A set of one reads its one
// replica; a mirror pair's steering looks at the low two bits of the
// slot (readSpindle). The storage manager keys a play's extent on the
// class, which is fixed when the strand is placed, and asks Locate for
// each class's spindle again whenever the steering changes
// (SteerGeneration).
func (a *Array) SteerClasses() int {
	if a.r == 1 {
		return a.sets
	}
	return 4 * a.sets
}

// SpindleRange reports the spindle that can service the whole access
// [lba, lba+n) on its own, or ok=false when the access crosses a stripe
// group boundary and must be split across spindles. The MSM uses it to
// decide whether a request's next blocks belong on a parallel lane.
//
// rt:hotpath
func (a *Array) SpindleRange(lba, n int) (spindle int, ok bool) {
	first := lba / a.groupSec
	last := first
	if n > 1 {
		last = (lba + n - 1) / a.groupSec
	}
	sp, _ := a.Locate(lba)
	return sp, first == last
}

// HeadCylinder reports the logical cylinder under spindle 0's actuator,
// where the serial lane's C-SCAN starts its sweep under a storage
// manager's ScanOrder. Spindle 0 is the
// first replica of set 0, so its local group g is logical group g·sets.
func (a *Array) HeadCylinder() int {
	localCyl := a.spindles[0].HeadCylinder()
	return (localCyl/a.sc*a.sets)*a.sc + localCyl%a.sc
}

// Stats returns the sum of every spindle's counters; BusyTime() over it
// is aggregate spindle-busy time, not wall time (p spindles working in
// parallel accumulate p seconds of busy time per second of round).
// A replaced spindle's counters leave the sum with it.
func (a *Array) Stats() Stats {
	var sum Stats
	for _, sp := range a.spindles {
		s := sp.Stats()
		sum.Reads += s.Reads
		sum.Writes += s.Writes
		sum.SectorsRead += s.SectorsRead
		sum.SectorsWritten += s.SectorsWritten
		sum.Seeks += s.Seeks
		sum.SeekTime += s.SeekTime
		sum.RotationTime += s.RotationTime
		sum.TransferTime += s.TransferTime
	}
	return sum
}

// BusyTime reports Stats().BusyTime(), kept as the spindles charge.
func (a *Array) BusyTime() time.Duration { return a.busy }

func (a *Array) checkRange(lba, n int) error {
	if n < 0 || lba < 0 || lba+n > a.logical.TotalSectors() {
		return fmt.Errorf("disk: array access [%d,%d) outside %d sectors", lba, lba+n, a.logical.TotalSectors())
	}
	return nil
}

// span is one group-contained slice of an access: count sectors at
// local on spindle sp, covering the caller's sectors [done, done+count).
func (a *Array) spanAt(lba, n, done int) (sp, local, count int) {
	cur := lba + done
	sp, local = a.Locate(cur)
	count = a.groupSec - cur%a.groupSec
	if count > n-done {
		count = n - done
	}
	return sp, local, count
}

// ReadInto is the allocation-free timed read: data lands in dst (at
// least n sectors long), which the caller then owns, and the returned
// service time is the owning spindle's charge — or, for a
// boundary-crossing access, the sum of the per-span charges. h is
// ignored (see Device.ReadInto).
//
// rt:hotpath
func (a *Array) ReadInto(h, lba, n int, dst []byte) (time.Duration, error) {
	if err := a.checkRange(lba, n); err != nil {
		return 0, err
	}
	ss := a.logical.SectorSize
	var total time.Duration
	for done := 0; done < n; {
		sp, local, count := a.spanAt(lba, n, done)
		seg := dst[done*ss : (done+count)*ss]
		data, t, err := a.readSpan(sp, local, count, seg)
		if err != nil {
			return 0, err
		}
		if &data[0] != &seg[0] {
			copy(seg, data) // lent by the spindle; the caller must own it
		}
		total += t
		done += count
	}
	return total, nil
}

// ReadView is the lending timed read (see Device.ReadView): an access
// inside one stripe group is the owning spindle's lending read — same
// charge, fault stream and mirror health observation as ReadInto, no
// copy. A boundary-crossing access is assembled in scratch.
//
// rt:hotpath
func (a *Array) ReadView(lba, n int, scratch []byte) ([]byte, time.Duration, error) {
	if err := a.checkRange(lba, n); err != nil {
		return nil, 0, err
	}
	if sp, local, count := a.spanAt(lba, n, 0); n > 0 && count == n {
		data, t, err := a.readSpan(sp, local, n, scratch)
		if err != nil {
			return nil, 0, err // ReadInto reports no charge for a failed array access
		}
		return data, t, nil
	}
	hi := n * a.logical.SectorSize
	if len(scratch) < hi {
		return nil, 0, fmt.Errorf("disk: ReadView scratch holds %d bytes, need %d", len(scratch), hi)
	}
	t, err := a.ReadInto(0, lba, n, scratch)
	if err != nil {
		return nil, 0, err
	}
	return scratch[:hi:hi], t, nil
}

// Write performs a timed write at the logical address; spans charge the
// owning spindles and the total is their sum.
func (a *Array) Write(lba int, data []byte) (time.Duration, error) {
	return a.write(lba, data, true)
}

// write is the one write routine behind Write (timed) and WriteAt: the
// access is split into group-contained spans, and each span goes to
// every writable replica of its owning set.
func (a *Array) write(lba int, data []byte, timed bool) (time.Duration, error) {
	ss := a.logical.SectorSize
	n := (len(data) + ss - 1) / ss
	if err := a.checkRange(lba, n); err != nil {
		return 0, err
	}
	var total time.Duration
	for done := 0; done < n; {
		sp, local, count := a.spanAt(lba, n, done)
		hi := (done + count) * ss
		if hi > len(data) {
			hi = len(data)
		}
		t, err := a.writeSet(sp/a.r, local, data[done*ss:hi], timed)
		if err != nil {
			return 0, err
		}
		total += t
		done += count
	}
	return total, nil
}

// spindleWrite is one spindle's write at a local address: the timed
// method (charged, observed, fault-injected) or the untimed one.
func spindleWrite(d Device, local int, data []byte, timed bool) (time.Duration, error) {
	if timed {
		return d.Write(local, data)
	}
	return 0, d.WriteAt(local, data)
}

// PeekServiceTime estimates the access cost without moving heads or
// touching statistics.
func (a *Array) PeekServiceTime(lba, n int) time.Duration {
	var total time.Duration
	for done := 0; done < n; {
		sp, local, count := a.spanAt(lba, n, done)
		total += a.spindles[sp].PeekServiceTime(local, count)
		done += count
	}
	return total
}

// ReadAt copies n sectors at the logical address without charging time.
func (a *Array) ReadAt(lba, n int) ([]byte, error) {
	if err := a.checkRange(lba, n); err != nil {
		return nil, err
	}
	return ownedRead(a, lba, n)
}

// ViewAt is the untimed lending read (see Device.ViewAt): an access
// inside one stripe group is the owning spindle's lending read; a
// boundary-crossing access is assembled in scratch, one copy per span.
func (a *Array) ViewAt(lba, n int, scratch []byte) ([]byte, error) {
	if err := a.checkRange(lba, n); err != nil {
		return nil, err
	}
	if sp, local, count := a.spanAt(lba, n, 0); n > 0 && count == n {
		return a.spindles[sp].ViewAt(local, n, scratch)
	}
	ss := a.logical.SectorSize
	if len(scratch) < n*ss {
		return nil, fmt.Errorf("disk: ViewAt scratch holds %d bytes, need %d", len(scratch), n*ss)
	}
	for done := 0; done < n; {
		sp, local, count := a.spanAt(lba, n, done)
		seg := scratch[done*ss : (done+count)*ss]
		data, err := a.spindles[sp].ViewAt(local, count, seg)
		if err != nil {
			return nil, err
		}
		if &data[0] != &seg[0] {
			copy(seg, data) // lent by the spindle
		}
		done += count
	}
	return scratch[: n*ss : n*ss], nil
}

// WriteAt stores data at the logical address without charging time.
func (a *Array) WriteAt(lba int, data []byte) error {
	_, err := a.write(lba, data, false)
	return err
}

// ResetStats clears every spindle's counters.
func (a *Array) ResetStats() {
	for _, sp := range a.spindles {
		sp.ResetStats()
	}
}

// SetReadLatencyHistogram installs the read-latency histogram on every
// spindle, so the array's reads land in one mmfs_disk_read_seconds
// series.
func (a *Array) SetReadLatencyHistogram(h *obs.Histogram) {
	for _, sp := range a.spindles {
		sp.SetReadLatencyHistogram(h)
	}
}

// SetWriteLatencyHistogram mirrors SetReadLatencyHistogram for the
// timed write path.
func (a *Array) SetWriteLatencyHistogram(h *obs.Histogram) {
	for _, sp := range a.spindles {
		sp.SetWriteLatencyHistogram(h)
	}
}
