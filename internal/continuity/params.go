// Package continuity implements the analytical model of Rangan & Vin
// (SOSP '91): the continuity equations relating disk and device
// characteristics to media recording rates (Eqs. 1–6), the derivation
// of storage granularity and the scattering parameter (§3.3.4),
// buffering and read-ahead rules (§3.3.2), the admission control
// algorithm for multiple concurrent requests (Eqs. 7–18), and the
// bounds on copying during rope editing (Eqs. 19–20).
//
// All quantities use the paper's units (Table 1): rates in units/second
// or bits/second, sizes in bits, times in float64 seconds.
package continuity

import (
	"fmt"
	"math"
	"time"
)

// Media describes one medium's recording and display characteristics.
// For video, Rate is R_vr (frames/s) and UnitBits is s_vf (bits/frame);
// for audio, Rate is R_as (samples/s) and UnitBits is s_as
// (bits/sample).
type Media struct {
	// Name identifies the medium in diagnostics ("video", "audio").
	Name string
	// UnitBits is the size of one frame or sample in bits.
	UnitBits float64
	// Rate is the recording (and synchronous playback) rate in
	// units/second.
	Rate float64
	// DisplayRate is the display-path consumption rate R_dp in
	// bits/second (decompression plus digital-to-analog conversion).
	// Zero means the display path is not a bottleneck and display
	// time is treated as zero, as in the pipelined and concurrent
	// equations.
	DisplayRate float64
}

// Validate reports an error if the media description is unusable.
func (m Media) Validate() error {
	if m.UnitBits <= 0 {
		return fmt.Errorf("continuity: media %q has non-positive unit size %g", m.Name, m.UnitBits)
	}
	if m.Rate <= 0 {
		return fmt.Errorf("continuity: media %q has non-positive rate %g", m.Name, m.Rate)
	}
	if m.DisplayRate < 0 {
		return fmt.Errorf("continuity: media %q has negative display rate %g", m.Name, m.DisplayRate)
	}
	return nil
}

// BitRate is the medium's recording bandwidth in bits/second.
func (m Media) BitRate() float64 { return m.UnitBits * m.Rate }

// BlockBits is the size in bits of a block holding q units.
func (m Media) BlockBits(q int) float64 { return float64(q) * m.UnitBits }

// PlaybackDuration is the playback (= recording) duration of a block
// of q units: q/R (the right-hand side of the continuity equations).
func (m Media) PlaybackDuration(q int) float64 { return float64(q) / m.Rate }

// DisplayTime is the time to display a block of q units through the
// display path: q·s/R_dp, or zero when the display path is unmodeled.
func (m Media) DisplayTime(q int) float64 {
	if m.DisplayRate == 0 {
		return 0
	}
	return m.BlockBits(q) / m.DisplayRate
}

// NTSCVideo models the paper's UVC hardware: 480×200 pixels at 12 bits
// of color, digitized and compressed in real time at NTSC rate. The
// board's compressed output is modeled at 8:1, giving 144 000 bits
// (18 KB) per frame at 30 frames/s (~4.3 Mbit/s). The display rate
// models a decompression path with 4× headroom over real time.
func NTSCVideo() Media {
	const rawBits = 480 * 200 * 12
	return Media{
		Name:        "video",
		UnitBits:    rawBits / 8,
		Rate:        30,
		DisplayRate: 4 * (rawBits / 8) * 30,
	}
}

// TelephoneAudio models the paper's audio hardware: 8 KBytes/second of
// 8-bit samples (8 kHz μ-law class).
func TelephoneAudio() Media {
	return Media{
		Name:        "audio",
		UnitBits:    8,
		Rate:        8000,
		DisplayRate: 0,
	}
}

// Device carries the disk characteristics the model consumes.
type Device struct {
	// TransferRate is r_dt, the rate of data transfer from disk in
	// bits/second.
	TransferRate float64
	// MaxAccess is l_max_seek: the worst-case seek plus rotational
	// latency between any two blocks, in seconds.
	MaxAccess float64
	// MinAccess is the smallest positioning cost charged for a
	// discontiguous access, in seconds. It lower-bounds realizable
	// scattering parameters.
	MinAccess float64
}

// Validate reports an error if the device description is unusable.
func (d Device) Validate() error {
	if d.TransferRate <= 0 {
		return fmt.Errorf("continuity: device has non-positive transfer rate %g", d.TransferRate)
	}
	if d.MaxAccess < 0 || d.MinAccess < 0 {
		return fmt.Errorf("continuity: device has negative access times (%g, %g)", d.MaxAccess, d.MinAccess)
	}
	if d.MaxAccess < d.MinAccess {
		return fmt.Errorf("continuity: device max access %g below min access %g", d.MaxAccess, d.MinAccess)
	}
	return nil
}

// TransferTime is the time to transfer bits at r_dt.
func (d Device) TransferTime(bits float64) float64 { return bits / d.TransferRate }

// Seconds converts a time.Duration to the model's float64 seconds.
func Seconds(t time.Duration) float64 { return t.Seconds() }

// Duration converts model seconds to a time.Duration, rounding to the
// nearest nanosecond.
func Duration(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}
