package disk

import (
	"fmt"
	"time"

	"mmfs/internal/obs"
)

// Stats accumulates operation counters for a disk.
type Stats struct {
	Reads          uint64
	Writes         uint64
	SectorsRead    uint64
	SectorsWritten uint64
	Seeks          uint64
	SeekTime       time.Duration
	RotationTime   time.Duration
	TransferTime   time.Duration
}

// BusyTime is the total time the disk spent positioning and
// transferring.
func (s Stats) BusyTime() time.Duration {
	return s.SeekTime + s.RotationTime + s.TransferTime
}

// Device is the one disk surface: everything the strand layer, the
// storage manager, the plan compilers and the file system facade need
// from a disk. *Disk and the striped *Array implement it directly;
// internal/fault wraps a *Disk to inject deterministic failures into
// the timed methods without the layers above knowing.
type Device interface {
	Geometry() Geometry
	// HeadCylinder reports the cylinder under the actuator.
	HeadCylinder() int
	Stats() Stats
	// Timed data path (virtual service times drive the round clock):
	// one access costs seek + average rotational latency + transfer.
	//
	// ReadInto reads n sectors at lba into dst, which must hold n
	// sectors. It is for callers that must own the bytes (the rebuild
	// copy engine); playback uses ReadView. h is ignored — a disk has
	// one actuator — and stays only for the load generator's layer
	// probe, which compiles against this signature.
	ReadInto(h, lba, n int, dst []byte) (time.Duration, error)
	// ReadView is the lending timed read, the rt:hotpath entry point:
	// timing, head movement, statistics and fault behaviour are
	// exactly ReadInto's, but when the access sits in one
	// materialised cylinder page of one spindle the returned slice
	// aliases the device's own store instead of a copy, and scratch is
	// not touched. Otherwise scratch (at least n sectors long, or the
	// read fails) is filled as ReadInto would and returned. Either way
	// the slice is read-only, has cap == len, and is valid until the
	// next write to the device or the next call with the same scratch.
	// On error data is nil and t is what ReadInto would report.
	ReadView(lba, n int, scratch []byte) (data []byte, t time.Duration, err error)
	Write(lba int, data []byte) (time.Duration, error)
	PeekServiceTime(lba, n int) time.Duration
	// Untimed data path (metadata, verification, editing copies, and
	// the FETCH reply). ReadAt returns bytes the caller owns; ViewAt is
	// its lending twin — the same bytes under ReadView's aliasing rules
	// (a capacity-clipped slice of the device's store when the access
	// sits in one materialised cylinder page of one spindle, scratch —
	// at least n sectors long — filled and returned otherwise; read-only,
	// cap == len, valid until the next write to the device or the next
	// call with the same scratch), with no charge, no head movement and
	// no fault injection.
	ReadAt(lba, n int) ([]byte, error)
	ViewAt(lba, n int, scratch []byte) ([]byte, error)
	WriteAt(lba int, data []byte) error
	// BusyTime is Stats().BusyTime() without the snapshot: a running
	// total, kept where each access is charged, which the storage
	// manager reads once a round.
	BusyTime() time.Duration
	// Maintenance: counters and the latency histograms every timed
	// access reports to (nil disables one).
	ResetStats()
	SetReadLatencyHistogram(*obs.Histogram)
	SetWriteLatencyHistogram(*obs.Histogram)
}

// Disk is an in-memory simulated disk: a sector store plus a timing
// model. All data-plane methods are untimed; the timing methods return
// the virtual service time of an access so callers (the storage
// manager's service rounds) can advance the simulation clock.
//
// Disk is not safe for concurrent use; the storage manager serializes
// access, which mirrors a real single-ported drive.
type Disk struct {
	geom Geometry
	// The geometry's derived constants, computed once in New because
	// every timed access reads them.
	spc        int
	total      int
	avgRot     time.Duration
	sectorTime time.Duration
	// pages holds sector data one cylinder at a time, allocated on
	// first write so that large simulated disks cost memory only for
	// the sectors actually used. A nil page reads as zeros.
	pages [][]byte
	// head is the cylinder under the one actuator.
	head  int
	stats Stats
	// meter, when set, is the busy total of the array the disk is a
	// spindle of (Array.BusyTime): serviceTime charges it as it charges
	// stats, and ResetStats takes the disk's share back out.
	meter *time.Duration
	// readLatency, when set, receives every timed read's service time
	// in seconds (the mmfs_disk_read_seconds series).
	readLatency *obs.Histogram
	// writeLatency mirrors readLatency for the timed write path (the
	// mmfs_disk_write_seconds series).
	writeLatency *obs.Histogram
}

var _ Device = (*Disk)(nil)

// New creates a zero-filled disk with the given geometry.
func New(g Geometry) (*Disk, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	d := &Disk{
		geom:       g,
		spc:        g.SectorsPerCylinder(),
		total:      g.TotalSectors(),
		avgRot:     g.AvgRotationalLatency(),
		sectorTime: g.SectorTime(),
		pages:      make([][]byte, g.Cylinders),
	}
	return d, nil
}

// MustNew is New but panics on invalid geometry; for tests and fixed
// experiment configurations.
func MustNew(g Geometry) *Disk {
	d, err := New(g)
	if err != nil {
		panic(err)
	}
	return d
}

// Geometry returns the disk's geometry.
func (d *Disk) Geometry() Geometry { return d.geom }

// Stats returns a snapshot of the accumulated counters.
func (d *Disk) Stats() Stats { return d.stats }

// BusyTime reports Stats().BusyTime().
func (d *Disk) BusyTime() time.Duration { return d.stats.BusyTime() }

// ResetStats clears the accumulated counters.
func (d *Disk) ResetStats() {
	if d.meter != nil {
		*d.meter -= d.stats.BusyTime()
	}
	d.stats = Stats{}
}

// meterBusy moves the disk's busy time from the meter it charges, if
// any, to m (nil: none): from then on every charge lands in m too. An
// array meters its spindles this way (NewArray, ReplaceSpindle); a
// fault layer embeds the disk, and with it this method.
func (d *Disk) meterBusy(m *time.Duration) {
	if d.meter != nil {
		*d.meter -= d.stats.BusyTime()
	}
	d.meter = m
	if m != nil {
		*m += d.stats.BusyTime()
	}
}

// SetReadLatencyHistogram installs an observability histogram that
// every timed read reports its virtual service time to, in seconds.
// nil disables the instrumentation.
func (d *Disk) SetReadLatencyHistogram(h *obs.Histogram) { d.readLatency = h }

// SetWriteLatencyHistogram installs an observability histogram that
// every timed write reports its virtual service time to, in seconds.
// nil disables the instrumentation.
func (d *Disk) SetWriteLatencyHistogram(h *obs.Histogram) { d.writeLatency = h }

// HeadCylinder reports the cylinder under the actuator.
func (d *Disk) HeadCylinder() int { return d.head }

func (d *Disk) checkRange(lba, n int) error {
	if n < 0 || lba < 0 || lba+n > d.total {
		return fmt.Errorf("disk: access [%d,%d) outside %d sectors", lba, lba+n, d.total)
	}
	return nil
}

// CylinderMaterialized reports whether the cylinder has ever been
// written. A nil page reads as zeros, and mirror twins materialize in
// lockstep (writes are duplicated), so the repair engine can skip
// unmaterialized cylinders without copying anything.
func (d *Disk) CylinderMaterialized(cyl int) bool {
	return cyl >= 0 && cyl < len(d.pages) && d.pages[cyl] != nil
}

// page returns cylinder cyl's backing store, allocating it when
// materialize is true; a nil return reads as zeros.
func (d *Disk) page(cyl int, materialize bool) []byte {
	if d.pages[cyl] == nil && materialize {
		d.pages[cyl] = make([]byte, d.spc*d.geom.SectorSize)
	}
	return d.pages[cyl]
}

// ReadAt copies n sectors starting at lba into a fresh buffer without
// charging time. Use ReadInto or ReadView for the timed path.
func (d *Disk) ReadAt(lba, n int) ([]byte, error) {
	if err := d.checkRange(lba, n); err != nil {
		return nil, err
	}
	return ownedRead(d, lba, n)
}

// ownedRead is ReadAt behind both devices: the lending read plus the
// one copy that makes the bytes the caller's. The caller has checked
// the range.
func ownedRead(d Device, lba, n int) ([]byte, error) {
	buf := make([]byte, n*d.Geometry().SectorSize)
	v, err := d.ViewAt(lba, n, buf)
	if err != nil {
		return nil, err
	}
	if Lent(v, buf) {
		copy(buf, v)
	}
	return buf, nil
}

// Lent reports whether data, as a lending read (ReadView, ViewAt, or
// the strand reader's block reads above them) returned it when handed
// scratch, is a view of the device's own store and not scratch filled.
func Lent(data, scratch []byte) bool {
	return len(data) > 0 && (len(scratch) == 0 || &data[0] != &scratch[0])
}

// ViewAt is the untimed lending read (see Device.ViewAt).
func (d *Disk) ViewAt(lba, n int, scratch []byte) ([]byte, error) {
	if err := d.checkRange(lba, n); err != nil {
		return nil, err
	}
	return d.view(lba, n, scratch)
}

// view is the one lending body behind ViewAt and ReadView: an access
// inside one materialised cylinder page is answered with a
// capacity-clipped slice of the page itself; one that crosses a
// cylinder or touches a page never written (which must read as zeros)
// fills scratch instead. The caller has checked the range.
//
// rt:hotpath
func (d *Disk) view(lba, n int, scratch []byte) ([]byte, error) {
	ss, spc := d.geom.SectorSize, d.spc
	cyl, off := lba/spc, lba%spc
	if n > 0 && off+n <= spc && d.pages[cyl] != nil {
		return d.pages[cyl][off*ss : (off+n)*ss : (off+n)*ss], nil
	}
	if err := d.ReadAtInto(lba, n, scratch); err != nil {
		return nil, err
	}
	return scratch[: n*ss : n*ss], nil
}

// ReadAtInto copies n sectors starting at lba into dst without
// charging time or allocating; dst must have room for n sectors.
func (d *Disk) ReadAtInto(lba, n int, dst []byte) error {
	if err := d.checkRange(lba, n); err != nil {
		return err
	}
	ss := d.geom.SectorSize
	spc := d.spc
	if len(dst) < n*ss {
		return fmt.Errorf("disk: ReadAtInto buffer holds %d bytes, need %d", len(dst), n*ss)
	}
	for done := 0; done < n; {
		cur := lba + done
		cyl := cur / spc
		inCyl := cur % spc
		span := spc - inCyl
		if span > n-done {
			span = n - done
		}
		seg := dst[done*ss : (done+span)*ss]
		if p := d.page(cyl, false); p != nil {
			copy(seg, p[inCyl*ss:(inCyl+span)*ss])
		} else {
			// Unmaterialized cylinders read as zeros; dst may hold
			// stale bytes from its previous lap around the scratch
			// arena.
			for i := range seg {
				seg[i] = 0
			}
		}
		done += span
	}
	return nil
}

// WriteAt stores data at lba without charging time, padding the last
// sector with zeros. Use Write for the timed path. Each span is copied
// once, straight into its cylinder page, and the sector tail is cleared
// there: a media block is rarely a whole number of sectors (54 000 bytes
// is 26.4 of them), so the padding must not cost a buffer. data may be a
// view lent from another, disjoint run of the same device.
func (d *Disk) WriteAt(lba int, data []byte) error {
	ss := d.geom.SectorSize
	n := (len(data) + ss - 1) / ss
	if err := d.checkRange(lba, n); err != nil {
		return err
	}
	spc := d.spc
	for done := 0; done < n; {
		cur := lba + done
		cyl := cur / spc
		inCyl := cur % spc
		span := spc - inCyl
		if span > n-done {
			span = n - done
		}
		dst := d.page(cyl, true)[inCyl*ss : (inCyl+span)*ss]
		clear(dst[copy(dst, data[done*ss:]):])
		done += span
	}
	return nil
}

// serviceTime charges the positioning and transfer costs of an access
// to lba for n sectors, moves the head, and updates stats and the busy
// meter.
func (d *Disk) serviceTime(lba, n int) time.Duration {
	target := lba / d.spc
	st := d.geom.SeekTime(target - d.head)
	rot := d.avgRot
	xfer := time.Duration(n) * d.sectorTime
	d.stats.Seeks++
	d.stats.SeekTime += st
	d.stats.RotationTime += rot
	d.stats.TransferTime += xfer
	if d.meter != nil {
		*d.meter += st + rot + xfer
	}
	// Leave the head at the cylinder holding the last sector accessed.
	if n > 0 {
		d.head = (lba + n - 1) / d.spc
	} else {
		d.head = target
	}
	return st + rot + xfer
}

// chargeRead is the one timing body of the timed read path: range
// check, positioning and transfer charge, head movement, read counters
// and the latency histogram.
func (d *Disk) chargeRead(lba, n int) (time.Duration, error) {
	if err := d.checkRange(lba, n); err != nil {
		return 0, err
	}
	t := d.serviceTime(lba, n)
	d.stats.Reads++
	d.stats.SectorsRead += uint64(n)
	d.readLatency.Observe(t.Seconds())
	return t, nil
}

// ReadInto performs a timed read of n sectors at lba: the service time
// is seek + average rotational latency + transfer, and the data lands in
// the caller's buffer (at least n sectors long), which the caller then
// owns. h is ignored (see Device.ReadInto).
//
// rt:hotpath
func (d *Disk) ReadInto(h, lba, n int, dst []byte) (time.Duration, error) {
	t, err := d.chargeRead(lba, n)
	if err != nil {
		return 0, err
	}
	if err := d.ReadAtInto(lba, n, dst); err != nil {
		return 0, err
	}
	return t, nil
}

// ReadView is the lending variant of ReadInto (see Device.ReadView):
// the same charge, then the bytes as view lends them — the transfer is
// the simulated disk's cost (r_dt), not the host's. The msm service
// round reads through it, so steady-state playback copies nothing.
//
// rt:hotpath
func (d *Disk) ReadView(lba, n int, scratch []byte) ([]byte, time.Duration, error) {
	t, err := d.chargeRead(lba, n)
	if err != nil {
		return nil, 0, err
	}
	data, err := d.view(lba, n, scratch)
	if err != nil {
		return nil, 0, err
	}
	return data, t, nil
}

// Write performs a timed write of data at lba, returning the service
// time. Disk write and read times are assumed equal, the paper's first
// simplifying assumption (§3).
func (d *Disk) Write(lba int, data []byte) (time.Duration, error) {
	n := (len(data) + d.geom.SectorSize - 1) / d.geom.SectorSize
	if err := d.checkRange(lba, n); err != nil {
		return 0, err
	}
	t := d.serviceTime(lba, n)
	d.stats.Writes++
	d.stats.SectorsWritten += uint64(n)
	d.writeLatency.Observe(t.Seconds())
	if err := d.WriteAt(lba, data); err != nil {
		return 0, err
	}
	return t, nil
}

// PeekServiceTime computes the service time an access to n sectors at
// lba would pay, without moving the head or updating statistics.
func (d *Disk) PeekServiceTime(lba, n int) time.Duration {
	return d.geom.SeekTime(lba/d.spc-d.head) + d.avgRot + time.Duration(n)*d.sectorTime
}
