package fault

import (
	"errors"
	"math/rand"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/obs"
)

// ErrTransient is a read or write failure that a bounded retry may
// clear (the drive's "recovered after retry" class).
var ErrTransient = errors.New("fault: transient error")

// ErrBadSector is a persistent media defect: retrying the same access
// always fails. Callers must degrade or replan, never retry.
var ErrBadSector = errors.New("fault: bad sector")

// ErrDeviceDead is a whole-device failure (Scenario.DieRound): every
// timed access fails, permanently. Like ErrBadSector it is never worth
// retrying; unlike it, the mirror layer can re-steer around it.
var ErrDeviceDead = errors.New("fault: device dead")

// Stats counts injected faults.
type Stats struct {
	ReadErrors  uint64
	WriteErrors uint64
	BadSectors  uint64
	DeadErrors  uint64
	Slowdowns   uint64
	// SpikeTime is the total extra virtual service time latency spikes
	// added on top of the base disk's timing model.
	SpikeTime time.Duration
}

// Disk wraps a simulated disk.Disk behind the disk.Device surface,
// injecting the Scenario's faults into the timed data path: it
// overrides every timed method of disk.Device — ReadInto, ReadView and
// Write — and nothing else. Untimed metadata access (ReadAt/WriteAt),
// PeekServiceTime (a planning estimate, not an access) and the
// maintenance hooks are the embedded disk's own, promoted unmodified.
// Like the disk it wraps, a Disk is not safe for concurrent use.
type Disk struct {
	*disk.Disk
	sc    Scenario
	rng   *rand.Rand
	stats Stats
	// forcedFails makes the next n timed reads fail with ErrTransient
	// regardless of the rates; tests use it to script exact failures.
	forcedFails int
	// round counts the caller's virtual service rounds (the MSM calls
	// AdvanceRound at each round boundary); once it passes
	// Scenario.DieRound the device is dead.
	round int

	// Registry mirrors of stats; nil, hence inert, until SetObs.
	readErrs, writeErrs *obs.Counter
	badSectors          *obs.Counter
	slowdowns           *obs.Counter
	spikeNs             *obs.Counter
}

var _ disk.Device = (*Disk)(nil)

// New wraps base with the scenario's fault stream.
func New(base *disk.Disk, sc Scenario) *Disk {
	return &Disk{Disk: base, sc: sc, rng: rand.New(rand.NewSource(sc.Seed))}
}

// FaultStats returns a snapshot of the injected-fault counters.
func (d *Disk) FaultStats() Stats { return d.stats }

// FailNextReads forces the next n timed reads to fail with
// ErrTransient, ahead of any probabilistic injection. Tests use it to
// script exact fault placements.
func (d *Disk) FailNextReads(n int) { d.forcedFails = n }

// AdvanceRound advances the virtual round counter driving DieRound
// scenarios; the MSM calls it once per service round.
func (d *Disk) AdvanceRound() { d.round++ }

// Dead reports whether a DieRound scenario has killed the device.
func (d *Disk) Dead() bool { return d.sc.DieRound > 0 && d.round > d.sc.DieRound }

// dieError records and returns the permanent whole-device failure.
func (d *Disk) dieError(read bool) error {
	d.stats.DeadErrors++
	if read {
		d.stats.ReadErrors++
		d.readErrs.Inc()
	} else {
		d.stats.WriteErrors++
		d.writeErrs.Inc()
	}
	return ErrDeviceDead
}

// SetObs mirrors the fault counters into an observability registry.
func (d *Disk) SetObs(reg *obs.Registry) {
	d.readErrs = reg.Counter("mmfs_fault_read_errors_total")
	d.writeErrs = reg.Counter("mmfs_fault_write_errors_total")
	d.badSectors = reg.Counter("mmfs_fault_bad_sector_errors_total")
	d.slowdowns = reg.Counter("mmfs_fault_slowdowns_total")
	d.spikeNs = reg.Counter("mmfs_fault_spike_ns_total")
}

// injectRead applies the fault stream to a completed timed read: the
// base disk already charged t and moved the head (a real drive spends
// the positioning time before discovering the error).
func (d *Disk) injectRead(lba, n int, data []byte, t time.Duration) ([]byte, time.Duration, error) {
	if d.Dead() {
		return nil, t, d.dieError(true)
	}
	if d.sc.badSector(lba, n) {
		d.stats.BadSectors++
		d.badSectors.Inc()
		return nil, t, ErrBadSector
	}
	if d.forcedFails > 0 {
		d.forcedFails--
		d.stats.ReadErrors++
		d.readErrs.Inc()
		return nil, t, ErrTransient
	}
	if d.sc.ReadErrorRate > 0 && d.rng.Float64() < d.sc.ReadErrorRate {
		d.stats.ReadErrors++
		d.readErrs.Inc()
		return nil, t, ErrTransient
	}
	return data, d.maybeSlow(t), nil
}

// maybeSlow applies a latency spike to service time t.
func (d *Disk) maybeSlow(t time.Duration) time.Duration {
	if d.sc.SlowdownRate > 0 && d.rng.Float64() < d.sc.SlowdownRate {
		spiked := time.Duration(float64(t) * d.sc.SlowdownFactor)
		d.stats.Slowdowns++
		d.stats.SpikeTime += spiked - t
		d.slowdowns.Inc()
		d.spikeNs.Add(uint64(spiked - t))
		return spiked
	}
	return t
}

// ReadInto performs the base owning read, then injects scenario
// faults. dst already holds the data when a fault is
// reported; callers treat the read as failed and retry.
//
// rt:hotpath
func (d *Disk) ReadInto(h, lba, n int, dst []byte) (time.Duration, error) {
	t, err := d.Disk.ReadInto(h, lba, n, dst)
	if err != nil {
		return t, err
	}
	_, t, err = d.injectRead(lba, n, dst, t)
	return t, err
}

// ReadView performs the lending base read, then injects scenario
// faults exactly as ReadInto does (same checks, same RNG draws in the
// same order). It must be declared here: *disk.Disk is embedded, so
// without it the base method would be promoted and lent reads would
// bypass the fault stream. A faulted read returns no data.
//
// rt:hotpath
func (d *Disk) ReadView(lba, n int, scratch []byte) ([]byte, time.Duration, error) {
	data, t, err := d.Disk.ReadView(lba, n, scratch)
	if err != nil {
		return nil, t, err
	}
	return d.injectRead(lba, n, data, t)
}

// Write performs the base timed write, then injects scenario faults.
// The simulated store already holds the data when a fault is reported,
// which mirrors a drive failing on verify rather than on transfer.
func (d *Disk) Write(lba int, data []byte) (time.Duration, error) {
	t, err := d.Disk.Write(lba, data)
	if err != nil {
		return t, err
	}
	if d.Dead() {
		return t, d.dieError(false)
	}
	n := (len(data) + d.Geometry().SectorSize - 1) / d.Geometry().SectorSize
	if d.sc.badSector(lba, n) {
		d.stats.BadSectors++
		d.badSectors.Inc()
		return t, ErrBadSector
	}
	if d.sc.WriteErrorRate > 0 && d.rng.Float64() < d.sc.WriteErrorRate {
		d.stats.WriteErrors++
		d.writeErrs.Inc()
		return t, ErrTransient
	}
	return d.maybeSlow(t), nil
}
