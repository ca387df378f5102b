package continuity

import "fmt"

// Arch selects one of the three retrieval architectures of §3.1.
type Arch int

const (
	// Pipelined overlaps the read of one block with the display of
	// the previous one, using two device buffers (Figure 2, Eq. 2).
	// It is the zero value: the architecture the paper's prototype
	// uses and the default everywhere in this implementation.
	Pipelined Arch = iota
	// Sequential serializes disk read and display: each block is
	// fully transferred, then fully displayed, before the next read
	// begins (Figure 1, Eq. 1).
	Sequential
	// Concurrent issues p disk reads in parallel into p device
	// buffers (Figure 3, Eq. 3).
	Concurrent
)

// String names the architecture.
func (a Arch) String() string {
	switch a {
	case Sequential:
		return "sequential"
	case Pipelined:
		return "pipelined"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// Config is an architecture plus its degree of concurrency.
type Config struct {
	Arch Arch
	// P is the degree of concurrency (number of parallel disk
	// accesses) for the Concurrent architecture; ignored otherwise.
	P int
}

// Validate reports an error for inconsistent configurations.
func (c Config) Validate() error {
	if c.Arch == Concurrent && c.P < 2 {
		return fmt.Errorf("continuity: concurrent architecture needs p ≥ 2, have %d", c.P)
	}
	if c.Arch != Sequential && c.Arch != Pipelined && c.Arch != Concurrent {
		return fmt.Errorf("continuity: unknown architecture %d", int(c.Arch))
	}
	return nil
}

// AvgBuffers is the number of buffers needed when continuity is
// satisfied over an average of k successive blocks: k (sequential),
// 2k (pipelined), or pk (concurrent) — §3.3.2.
func (c Config) AvgBuffers(k int) int {
	switch c.Arch {
	case Sequential:
		return k
	case Pipelined:
		return 2 * k
	default:
		return c.P * k
	}
}

// ReadAhead is the read-ahead depth (in blocks) needed to satisfy
// continuity over an average of k blocks: k for sequential and
// pipelined, pk for concurrent — §3.3.2.
func (c Config) ReadAhead(k int) int {
	if c.Arch == Concurrent {
		return c.P * k
	}
	return k
}

// ReadTime is the total delay to read one block of q units from disk:
// l_ds + q·s/r_dt (the paper's "total delay to read a video block").
func ReadTime(q int, m Media, lds float64, d Device) float64 {
	return lds + d.TransferTime(m.BlockBits(q))
}

// Feasible evaluates the continuity requirement of §3.1 for a single
// strand of medium m stored at granularity q with scattering parameter
// lds on device d:
//
//	Sequential (Eq. 1):  l_ds + q·s/r_dt + q·s/R_dp ≤ q/R
//	Pipelined  (Eq. 2):  l_ds + q·s/r_dt            ≤ q/R
//	Concurrent (Eq. 3):  l_ds + q·s/r_dt ≤ (p−1)·q/R
func Feasible(cfg Config, q int, lds float64, m Media, d Device) bool {
	return Slack(cfg, q, lds, m, d) >= 0
}

// Slack is the margin (seconds) by which the continuity requirement is
// satisfied; negative means infeasible. The equality point (zero
// slack) is the paper's "automatic synchronization" condition (§3.2):
// the effective access time per block equals its playback duration.
func Slack(cfg Config, q int, lds float64, m Media, d Device) float64 {
	read := ReadTime(q, m, lds, d)
	play := m.PlaybackDuration(q)
	switch cfg.Arch {
	case Sequential:
		return play - read - m.DisplayTime(q)
	case Pipelined:
		return play - read
	default:
		return float64(cfg.P-1)*play - read
	}
}

// MaxScattering solves the continuity equation for the largest
// scattering parameter l_ds (seconds) permitting continuous retrieval
// of medium m at granularity q (§3.3.4: "the upper bound of the
// scattering parameter is obtained by direct substitution in the
// continuity equations"). The second result is false when no
// non-negative scattering works, i.e. the device cannot sustain the
// medium at this granularity even with contiguous blocks.
func MaxScattering(cfg Config, q int, m Media, d Device) (float64, bool) {
	play := m.PlaybackDuration(q)
	xfer := d.TransferTime(m.BlockBits(q))
	var lds float64
	switch cfg.Arch {
	case Sequential:
		lds = play - xfer - m.DisplayTime(q)
	case Pipelined:
		lds = play - xfer
	default:
		lds = float64(cfg.P-1)*play - xfer
	}
	if lds < 0 {
		return lds, false
	}
	return lds, true
}

// GranularityFromBuffers applies §3.3.4's device-buffer rule for
// direct (disk-to-device) transfer: with an internal display buffer of
// f frames, sequential retrieval admits q ≤ f, pipelined q ≤ f/2, and
// p-concurrent q ≤ f/p. It returns the largest admissible granularity.
func GranularityFromBuffers(cfg Config, deviceBufferUnits int) int {
	if deviceBufferUnits < 1 {
		return 0
	}
	switch cfg.Arch {
	case Sequential:
		return deviceBufferUnits
	case Pipelined:
		return deviceBufferUnits / 2
	default:
		return deviceBufferUnits / cfg.P
	}
}

// Derivation bundles the outcome of the §3.3.4 procedure for one
// strand: choose the granularity from the device buffers, then obtain
// the scattering bound by substitution.
type Derivation struct {
	Config        Config
	Media         Media
	Device        Device
	Granularity   int     // q: units per block
	MaxScattering float64 // upper bound on l_ds (seconds)
	// MinScattering is the lower bound on l_ds imposed by the editing
	// algorithm (§6.1: "the algorithm that bounds the amount of
	// copying necessary during editing operations defines the lower
	// bound"); the caller chooses it, defaulting to the device's
	// minimum realizable access time.
	MinScattering float64
}

// Derive performs the §3.3.4 determination: granularity from the
// display device's internal buffer size (in units), then the
// scattering upper bound by substitution in the continuity equation.
// The scattering lower bound defaults to the device's MinAccess.
func Derive(cfg Config, deviceBufferUnits int, m Media, d Device) (Derivation, error) {
	if err := cfg.Validate(); err != nil {
		return Derivation{}, err
	}
	if err := m.Validate(); err != nil {
		return Derivation{}, err
	}
	if err := d.Validate(); err != nil {
		return Derivation{}, err
	}
	q := GranularityFromBuffers(cfg, deviceBufferUnits)
	if q < 1 {
		return Derivation{}, fmt.Errorf("continuity: device buffer of %d units admits no granularity under %v", deviceBufferUnits, cfg.Arch)
	}
	lds, ok := MaxScattering(cfg, q, m, d)
	if !ok {
		return Derivation{}, fmt.Errorf("continuity: medium %q (%.3g bit/s) infeasible at q=%d on device with r_dt=%.3g bit/s under %v",
			m.Name, m.BitRate(), q, d.TransferRate, cfg.Arch)
	}
	min := d.MinAccess
	if min > lds {
		min = lds
	}
	return Derivation{
		Config:        cfg,
		Media:         m,
		Device:        d,
		Granularity:   q,
		MaxScattering: lds,
		MinScattering: min,
	}, nil
}
