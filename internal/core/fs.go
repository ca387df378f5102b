// Package core is the top-level multimedia file system facade: it ties
// the disk, the constrained allocator, the strand and rope stores, the
// interests-based garbage collector, the scattering-maintenance
// editor, and the Multimedia Storage Manager into one mountable file
// system with the paper's operation set — RECORD, PLAY, STOP, PAUSE,
// RESUME, INSERT, REPLACE, SUBSTRING, CONCATE, DELETE (§4.1) — plus
// Format/Open/Sync persistence.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mmfs/internal/alloc"
	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/gc"
	"mmfs/internal/msm"
	"mmfs/internal/obs"
	"mmfs/internal/rope"
	"mmfs/internal/strand"
	"mmfs/internal/textfs"
)

// ErrAccess reports an operation denied by a rope's access lists.
var ErrAccess = errors.New("core: access denied")

const (
	superMagic   = 0x4d4d4653 // "MMFS"
	superVersion = 1
	superLBA     = 0
)

// Options configure a file system at format time.
type Options struct {
	// Geometry describes the disk; zero value uses
	// disk.DefaultGeometry.
	Geometry disk.Geometry
	// TargetCylinders is the placement policy: successive blocks of
	// a strand stay within this many cylinders, keeping the realized
	// scattering (and the admission-control β) far below the
	// continuity bound. 0 uses 32.
	TargetCylinders int
	// CacheMB sizes the interval cache in MiB: trailing plays of a
	// strand range are served from the blocks a leading play just
	// fetched, admitting more concurrent streams than the disk-only
	// bound n_max. 0 disables the cache. The size bounds the modelled
	// residency (mmfs_cache_bytes) — what admission and eviction reason
	// about; cached blocks are normally views of the device's store, so
	// the host memory the cache adds is what mmfs_cache_owned_bytes reads.
	CacheMB int
	// Fault configures deterministic fault injection on the timed
	// accesses (strand reads and writes) of spindle FaultSpindle. The
	// zero scenario leaves the raw disk in place — the fault layer costs
	// nothing when off. Metadata access always bypasses injection.
	Fault fault.Scenario
	// Disks is the number of independent spindles (the paper's degree
	// of concurrency p). Values above 1 build a striped disk.Array of
	// identical spindles — Geometry describes one spindle — and the
	// storage manager services one concurrent sub-round per spindle
	// with per-spindle admission control. 0 and 1 mean a single disk.
	Disks int
	// Stripe is the striping unit in cylinders: runs of Stripe
	// consecutive logical cylinders (stripe groups) are dealt
	// round-robin across the spindles, so a placement-constrained
	// strand stays on one spindle while distinct strands spread. Must
	// divide Geometry.Cylinders. 0 picks Cylinders/10 when that
	// divides evenly, else 1. Ignored for a single disk.
	Stripe int
	// FaultSpindle selects which spindle the Fault scenario wraps (a
	// one-degraded-spindle experiment: only streams resident there
	// degrade). Out-of-range values are a configuration error (an
	// experiment naming a spindle the array does not have must fail
	// loudly, not silently degrade spindle 0). A single disk is
	// spindle 0.
	FaultSpindle int
	// Mirror pairs the array's spindles into mirror groups (Disks must
	// be even and >= 2): capacity halves, both twins of a pair hold
	// identical data, and the file system survives the loss of either
	// twin of every pair — reads steer to the survivor, admission
	// shrinks to the surviving capacity, and a replaced spindle is
	// rebuilt online in the service rounds' leftover slack.
	Mirror bool
	// RebuildRate caps the repair chunks (one spindle cylinder each)
	// the online rebuild engine copies per service round.
	// 0 uses the storage manager's default.
	RebuildRate int
	// QoSMaxStride enables QoS load shedding when ≥ 2: under overload,
	// standard and best-effort plays are admitted sub-sampled (at
	// power-of-two strides up to this bound) instead of rejected, and a
	// per-round pass promotes/demotes them as measured slack changes.
	// 0 (and 1) keep admission binary accept/reject.
	QoSMaxStride int
	// QoSDefault is the class assigned to PLAY requests that do not
	// name one. The zero value is best-effort; servers that want a
	// friendlier default set Standard.
	QoSDefault continuity.Class
}

func (o Options) withDefaults() (Options, error) {
	if o.Geometry.Cylinders == 0 {
		o.Geometry = disk.DefaultGeometry()
	}
	if o.TargetCylinders == 0 {
		o.TargetCylinders = 32
	}
	if o.Disks < 1 {
		o.Disks = 1
	}
	if o.Disks > 1 && o.Stripe == 0 {
		o.Stripe = o.Geometry.Cylinders / 10
		if o.Stripe == 0 || o.Geometry.Cylinders%o.Stripe != 0 {
			o.Stripe = 1
		}
	}
	if o.FaultSpindle < 0 || o.FaultSpindle >= o.Disks {
		return o, fmt.Errorf("core: fault spindle %d outside the array [0,%d)", o.FaultSpindle, o.Disks)
	}
	if o.Mirror && (o.Disks < 2 || o.Disks%2 != 0) {
		return o, fmt.Errorf("core: mirroring needs an even spindle count >= 2, have %d", o.Disks)
	}
	if o.RebuildRate < 0 {
		return o, fmt.Errorf("core: rebuild rate %d negative", o.RebuildRate)
	}
	return o, nil
}

// FS is a mounted multimedia file system.
type FS struct {
	opts Options
	// d is the device newStore built: one spindle, or a striped
	// disk.Array when Options.Disks > 1. Media and metadata share it;
	// they part ways inside the fault wrapper, which overrides only the
	// timed methods the media path uses.
	d disk.Device
	// faultDisk is the wrapper around spindle Options.FaultSpindle, nil
	// when no scenario is active.
	faultDisk *fault.Disk
	a         *alloc.Allocator
	strands   *strand.Store
	ropes     *rope.Store
	interests *gc.Interests
	collector *gc.Collector
	editor    *rope.Editor
	mgr       *msm.Manager
	// plays is the repeat-play memo: per rope medium, the plan the last
	// PLAY compiled (see PlayPlan).
	plays map[playKey]playMemo
	// cache is the interval cache, nil when Options.CacheMB is 0. It is
	// the file system's: built once, lent to one storage manager at a
	// time (see NewManager).
	cache *cache.Cache
	dev   continuity.Device
	text  *textfs.Store
	// obsReg and obsRing are the file system's observability registry
	// and service-round trace; they outlive manager replacements
	// (NewManager re-wires the fresh manager into the same registry so
	// counters continue across experiment trials).
	obsReg  *obs.Registry
	obsRing *obs.TraceRing
	// The write path's series: each Sync's host time and the metadata
	// bytes it rewrote, and what scattering maintenance copied.
	syncSeconds  *obs.Histogram
	syncBytes    *obs.Counter
	copiedBlocks *obs.Counter
	copiedBytes  *obs.Counter

	// metadata region bookkeeping
	bitmapLBA     int
	bitmapSectors int
	strandTab     alloc.Run
	ropeTab       alloc.Run
	textTab       alloc.Run
	strandTabLen  int
	ropeTabLen    int
	textTabLen    int
	// nextStart rotates strand start cylinders so concurrent strands
	// spread across the disk.
	nextStart int
	// unitBuf is VisitUnits' scratch: where a unit the device cannot
	// lend (or a silence fill) is assembled for the visitor.
	unitBuf []byte
	// meta is Sync's scratch: each table, the bitmap and the superblock
	// are encoded into it in turn and written out before the next.
	meta []byte
}

// newStore is the one place Options become a device: Disks identical
// spindles of Geometry, the Fault scenario wrapped around spindle
// FaultSpindle (so one degraded spindle degrades only the streams
// resident on it), and — for more than one spindle — a disk.Array over
// them, striped by Stripe cylinders and mirrored when Mirror is set. A
// single disk is spindle 0, served bare. The wrapper is returned beside
// the device; it is nil when no scenario is active. opts carries its
// defaults (Format applies them).
func newStore(opts Options) (disk.Device, *fault.Disk, error) {
	var fd *fault.Disk
	devs := make([]disk.Device, opts.Disks)
	for i := range devs {
		d, err := disk.New(opts.Geometry)
		if err != nil {
			return nil, nil, err
		}
		devs[i] = d
		if opts.Fault.Active() && i == opts.FaultSpindle {
			fd = fault.New(d, opts.Fault)
			devs[i] = fd
		}
	}
	if len(devs) == 1 {
		return devs[0], fd, nil
	}
	arr, err := disk.NewArray(devs, opts.Stripe, opts.Mirror)
	if err != nil {
		return nil, nil, err
	}
	return arr, fd, nil
}

// Format creates a fresh file system on a new simulated disk (or
// striped array, when Options.Disks > 1).
func Format(opts Options) (*FS, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	d, fd, err := newStore(opts)
	if err != nil {
		return nil, err
	}
	g := d.Geometry()
	bitmapBytes := (g.TotalSectors() + 63) / 64 * 8
	bitmapSectors := (bitmapBytes + g.SectorSize - 1) / g.SectorSize
	reserved := 1 + bitmapSectors
	a, err := alloc.New(g, reserved)
	if err != nil {
		return nil, err
	}
	fs := build(opts, d, fd, a)
	fs.bitmapLBA = 1
	fs.bitmapSectors = bitmapSectors
	if err := fs.Sync(); err != nil {
		return nil, err
	}
	return fs, nil
}

// build wires the subsystems over an existing device and allocator.
func build(opts Options, d disk.Device, fd *fault.Disk, a *alloc.Allocator) *FS {
	g := d.Geometry()
	ss := strand.NewStore(d, a)
	in := gc.New()
	rs := rope.NewStore(ss, in)
	fs := &FS{
		opts:      opts,
		d:         d,
		faultDisk: fd,
		a:         a,
		strands:   ss,
		ropes:     rs,
		interests: in,
		collector: gc.NewCollector(ss, in),
		editor:    rope.NewEditor(d, a, rs, opts.TargetCylinders),
		dev:       msm.DeviceFor(g),
		text:      textfs.NewStore(d, a),
		nextStart: g.Cylinders / 7,
		plays:     make(map[playKey]playMemo),
	}
	fs.obsReg = obs.NewRegistry()
	fs.obsRing = obs.NewTraceRing(obs.DefaultTraceRounds)
	fs.syncSeconds = fs.obsReg.Histogram("mmfs_sync_seconds", syncBuckets)
	fs.syncBytes = fs.obsReg.Counter("mmfs_sync_bytes_total")
	fs.copiedBlocks = fs.obsReg.Counter("mmfs_edit_copied_blocks_total")
	fs.copiedBytes = fs.obsReg.Counter("mmfs_edit_copied_bytes_total")
	if opts.CacheMB > 0 {
		fs.cache = cache.New(int64(opts.CacheMB) << 20)
		fs.cache.SetObs(fs.obsReg)
		// The cache retains views of strands' blocks; a removed strand's
		// sectors may be rewritten, so its blocks leave the cache first.
		ss.OnRemove(fs.cache.InvalidateStrand)
	}
	fs.mgr = fs.newManager()
	fs.wireObs()
	return fs
}

// wireObs connects the disk and the current manager to the file
// system's registry and trace ring.
func (fs *FS) wireObs() {
	fs.d.SetReadLatencyHistogram(fs.obsReg.Histogram("mmfs_disk_read_seconds", obs.LatencyBuckets))
	fs.d.SetWriteLatencyHistogram(fs.obsReg.Histogram("mmfs_disk_write_seconds", obs.LatencyBuckets))
	if fs.faultDisk != nil {
		fs.faultDisk.SetObs(fs.obsReg)
	}
	fs.mgr.SetObs(fs.obsReg, fs.obsRing)
}

// Metrics returns the observability registry every subsystem reports
// into.
func (fs *FS) Metrics() *obs.Registry { return fs.obsReg }

// Trace returns the service-round trace ring.
func (fs *FS) Trace() *obs.TraceRing { return fs.obsRing }

// Open mounts a previously formatted file system from its device — the
// one Format built (FS.Disk), fault wrapper included, or an array the
// caller reconstructed around its spindles. Open wraps nothing: a
// scenario in opts is live only if spindle FaultSpindle of d already
// carries its wrapper.
func Open(d disk.Device, opts Options) (*FS, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	opts.Geometry = d.Geometry()
	g := d.Geometry()
	sb, err := d.ReadAt(superLBA, 1)
	if err != nil {
		return nil, err
	}
	get32 := func(off int) int { return int(binary.LittleEndian.Uint32(sb[off:])) }
	if uint32(get32(0)) != superMagic {
		return nil, fmt.Errorf("core: bad superblock magic %#x", get32(0))
	}
	if get32(4) != superVersion {
		return nil, fmt.Errorf("core: unsupported version %d", get32(4))
	}
	a, err := alloc.New(g, 0)
	if err != nil {
		return nil, err
	}
	sp := d
	if arr, ok := d.(*disk.Array); ok && opts.FaultSpindle < arr.Spindles() {
		sp = arr.Spindle(opts.FaultSpindle)
	}
	fd, _ := sp.(*fault.Disk)
	fs := build(opts, d, fd, a)
	fs.bitmapLBA = get32(8)
	fs.bitmapSectors = get32(12)
	fs.strandTab = alloc.Run{LBA: get32(16), Sectors: get32(20)}
	fs.strandTabLen = get32(24)
	fs.ropeTab = alloc.Run{LBA: get32(28), Sectors: get32(32)}
	fs.ropeTabLen = get32(36)
	fs.nextStart = get32(40)
	fs.textTab = alloc.Run{LBA: get32(44), Sectors: get32(48)}
	fs.textTabLen = get32(52)

	bm, err := d.ReadAt(fs.bitmapLBA, fs.bitmapSectors)
	if err != nil {
		return nil, err
	}
	if err := a.UnmarshalBitmap(bm); err != nil {
		return nil, err
	}
	if fs.strandTab.Sectors > 0 {
		data, err := d.ReadAt(fs.strandTab.LBA, fs.strandTab.Sectors)
		if err != nil {
			return nil, err
		}
		if err := fs.strands.Unmarshal(data[:fs.strandTabLen]); err != nil {
			return nil, err
		}
	}
	if fs.ropeTab.Sectors > 0 {
		data, err := d.ReadAt(fs.ropeTab.LBA, fs.ropeTab.Sectors)
		if err != nil {
			return nil, err
		}
		if err := fs.ropes.Unmarshal(data[:fs.ropeTabLen]); err != nil {
			return nil, err
		}
	}
	if fs.textTab.Sectors > 0 {
		data, err := d.ReadAt(fs.textTab.LBA, fs.textTab.Sectors)
		if err != nil {
			return nil, err
		}
		if err := fs.text.Unmarshal(data[:fs.textTabLen]); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// syncBuckets are mmfs_sync_seconds' bounds: a Sync is untimed
// metadata work, tens of microseconds to a few milliseconds of host time.
var syncBuckets = []float64{25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3}

// Sync persists the metadata: strand table, rope table, text table,
// allocator bitmap, and superblock.
func (fs *FS) Sync() error {
	defer obs.StartTimer().ObserveInto(fs.syncSeconds)
	g := fs.d.Geometry()
	// Release prior table runs, then write fresh ones.
	if fs.strandTab.Sectors > 0 {
		fs.a.Free(fs.strandTab)
		fs.strandTab = alloc.Run{}
	}
	if fs.ropeTab.Sectors > 0 {
		fs.a.Free(fs.ropeTab)
		fs.ropeTab = alloc.Run{}
	}
	if fs.textTab.Sectors > 0 {
		fs.a.Free(fs.textTab)
		fs.textTab = alloc.Run{}
	}
	// Each table is encoded into the one scratch buffer, placed and
	// written before the next reuses it. The order — strand, rope and text
	// tables, then the bitmap, then the superblock — is part of the format:
	// first-fit placement of each table depends on the ones before it.
	put := func(lba int) error {
		fs.syncBytes.Add(uint64(len(fs.meta)))
		return fs.d.WriteAt(lba, fs.meta)
	}
	place := func() (alloc.Run, int, error) {
		n := (len(fs.meta) + g.SectorSize - 1) / g.SectorSize
		if n == 0 {
			n = 1
		}
		run, err := fs.a.Allocate(n)
		if err != nil {
			return alloc.Run{}, 0, err
		}
		return run, len(fs.meta), put(run.LBA)
	}
	var err error
	fs.meta = fs.strands.Marshal(fs.meta[:0])
	if fs.strandTab, fs.strandTabLen, err = place(); err != nil {
		return err
	}
	fs.meta = fs.ropes.Marshal(fs.meta[:0])
	if fs.ropeTab, fs.ropeTabLen, err = place(); err != nil {
		return err
	}
	fs.meta = fs.text.Marshal(fs.meta[:0])
	if fs.textTab, fs.textTabLen, err = place(); err != nil {
		return err
	}

	// Bitmap last: it must reflect the table allocations above.
	fs.meta = fs.a.MarshalBitmap(fs.meta[:0])
	if err := put(fs.bitmapLBA); err != nil {
		return err
	}
	// The superblock's fields; WriteAt zero-fills the rest of its sector.
	fs.meta = fs.meta[:0]
	for _, v := range [...]int{
		superMagic, superVersion, fs.bitmapLBA, fs.bitmapSectors,
		fs.strandTab.LBA, fs.strandTab.Sectors, fs.strandTabLen,
		fs.ropeTab.LBA, fs.ropeTab.Sectors, fs.ropeTabLen,
		fs.nextStart,
		fs.textTab.LBA, fs.textTab.Sectors, fs.textTabLen,
	} {
		fs.meta = binary.LittleEndian.AppendUint32(fs.meta, uint32(v))
	}
	return put(superLBA)
}

// Text exposes the integrated conventional text-file store, which
// lives in the gaps between media blocks.
func (fs *FS) Text() *textfs.Store { return fs.text }

// Disk exposes the underlying device: the single simulated disk (inside
// its fault wrapper when Options.Fault is active), or the striped array
// when the file system was formatted with Disks > 1.
func (fs *FS) Disk() disk.Device { return fs.d }

// Array exposes the striped array, nil on a single-disk system.
func (fs *FS) Array() *disk.Array {
	if a, ok := fs.d.(*disk.Array); ok {
		return a
	}
	return nil
}

// MediaDevice exposes the device plan compilation and playback go
// through. It is Disk(): injected faults reach the storage manager
// through the device's timed methods, which metadata never calls.
func (fs *FS) MediaDevice() disk.Device { return fs.d }

// Allocator exposes the block allocator.
func (fs *FS) Allocator() *alloc.Allocator { return fs.a }

// Manager exposes the storage manager; callers drive virtual time
// through it (RunRound / RunUntilDone).
func (fs *FS) Manager() *msm.Manager { return fs.mgr }

// NewManager replaces the storage manager with a fresh one (new
// virtual clock, empty request table) over the same disk and stored
// data. Experiments use it to run independent playback trials against
// one recorded data set. The interval cache's frames pass to the new
// manager emptied — it starts as cold as behind a new cache, and allocates
// none of what its predecessor already did — and the retiring manager is
// detached from them first (msm.SetCache): it can still be run, stopped
// or dropped, but never again reads or writes a frame.
func (fs *FS) NewManager() *msm.Manager {
	fs.mgr.SetCache(nil)
	fs.mgr = fs.newManager()
	fs.wireObs()
	return fs.mgr
}

// newManager builds a storage manager over the media device, configured
// from the options the file system was mounted with.
func (fs *FS) newManager() *msm.Manager {
	m := msm.New(fs.d, continuity.AdmissionFor(fs.dev))
	if fs.cache != nil {
		fs.cache.Reset()
		m.SetCache(fs.cache)
	}
	if fs.opts.QoSMaxStride >= 2 {
		m.SetQoS(msm.QoSPolicy{MaxStride: fs.opts.QoSMaxStride})
	}
	if fs.opts.RebuildRate > 0 {
		m.SetRebuildRate(fs.opts.RebuildRate)
	}
	return m
}

// Strands exposes the strand registry.
func (fs *FS) Strands() *strand.Store { return fs.strands }

// Ropes exposes the rope registry.
func (fs *FS) Ropes() *rope.Store { return fs.ropes }

// Editor exposes the scattering-maintenance editor.
func (fs *FS) Editor() *rope.Editor { return fs.editor }

// Device reports the disk characteristics the continuity model sees.
func (fs *FS) Device() continuity.Device { return fs.dev }

// Options reports the mounted options.
func (fs *FS) Options() Options { return fs.opts }

// TargetScattering is the placement policy's scattering parameter in
// seconds: the access time of a TargetCylinders-distant block.
func (fs *FS) TargetScattering() float64 {
	return continuity.Seconds(fs.d.Geometry().AccessTime(fs.opts.TargetCylinders))
}

// Constraint is the allocator constraint implementing the placement
// policy: fill the previous block's cylinder, then hop at most
// TargetCylinders.
func (fs *FS) Constraint() alloc.Constraint {
	return alloc.RunPlacement(fs.opts.TargetCylinders)
}

// nextStartCylinder rotates strand start positions across the disk: a
// fifth of the way on, plus a drift that keeps the bands from lining up.
// On an array that step alone is a near-whole number of stripe rows, and
// consecutive recordings — played together more often than not — would
// pile onto one spindle; there the step is whole rows plus one stripe
// group, so successive strands start on successive spindles, and a start
// closer than a strand's usual extent to its group's end moves to the
// next group, so a strand that short stays on the spindle it started on
// (admission charges it on every spindle it touches).
func (fs *FS) nextStartCylinder() int {
	c := fs.nextStart
	cyls := fs.d.Geometry().Cylinders
	step := cyls/5 + 13
	if arr := fs.Array(); arr != nil {
		sc := arr.StripeCylinders()
		if clear := min(fs.opts.TargetCylinders, sc/2); sc-c%sc <= clear {
			c = (c + sc - c%sc) % cyls
		}
		row := sc * (cyls / arr.Spindle(0).Geometry().Cylinders) // one group on every replica set
		step = cyls/5/row*row + sc + 13
	}
	fs.nextStart = (c + step) % cyls
	return c
}

// Collect runs the garbage collector, reclaiming unreferenced strands
// (the strand store's removal hook drops their cached blocks).
func (fs *FS) Collect() ([]strand.ID, error) { return fs.collector.Collect() }

// Occupancy reports the allocated fraction of the disk.
func (fs *FS) Occupancy() float64 { return fs.a.Occupancy() }
