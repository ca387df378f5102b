package continuity

import (
	"testing"
	"testing/quick"
)

func vbrProfile() VBRProfile {
	return VBRProfile{Rate: 30, PeakUnitBits: 36000 * 8, AvgUnitBits: 14400 * 8}
}

func TestVBRProfileMedia(t *testing.T) {
	p := vbrProfile()
	if p.PeakMedia("v").UnitBits != p.PeakUnitBits || p.AvgMedia("v").UnitBits != p.AvgUnitBits {
		t.Fatal("profile media sizes")
	}
	if p.PeakMedia("v").Rate != 30 || p.AvgMedia("v").Rate != 30 {
		t.Fatal("profile media rates")
	}
}

func TestVBRMaxScatteringOrdering(t *testing.T) {
	p := vbrProfile()
	d := testDevice()
	cfg := Config{Arch: Pipelined}
	peak, avg, ok := VBRMaxScattering(cfg, 3, p, d)
	if !ok {
		t.Fatal("infeasible")
	}
	if peak < 0 {
		t.Fatal("peak unexpectedly infeasible on this device")
	}
	// Average provisioning always admits at least as much scattering.
	if avg < peak {
		t.Fatalf("avg bound %g below peak bound %g", avg, peak)
	}
}

func TestVBRPeakInfeasibleAvgFeasible(t *testing.T) {
	// A device fast enough for the average rate but not the peak.
	p := vbrProfile()
	// Peak bit rate: 36000*8*30 = 8.64 Mbit/s; avg: 3.456 Mbit/s.
	d := Device{TransferRate: 5e6, MaxAccess: 0.04}
	peak, avg, ok := VBRMaxScattering(Config{Arch: Pipelined}, 3, p, d)
	if !ok {
		t.Fatal("avg should be feasible at 5 Mbit/s")
	}
	if peak >= 0 {
		t.Fatalf("peak bound %g should be infeasible at 5 Mbit/s", peak)
	}
	if avg <= 0 {
		t.Fatalf("avg bound %g", avg)
	}
	// And a device too slow even for the average.
	_, _, ok = VBRMaxScattering(Config{Arch: Pipelined}, 3, p, Device{TransferRate: 1e6, MaxAccess: 0.04})
	if ok {
		t.Fatal("1 Mbit/s device should be infeasible")
	}
}

func TestVBRBurstReadAhead(t *testing.T) {
	p := vbrProfile()
	d := testDevice()
	h1 := VBRBurstReadAhead(3, p, d, 1)
	if h1 < 1 {
		t.Fatalf("h = %d", h1)
	}
	// Longer bursts need at least as much read-ahead.
	prev := 0
	for burst := 1; burst <= 8; burst++ {
		h := VBRBurstReadAhead(3, p, d, burst)
		if h < prev {
			t.Fatalf("read-ahead decreased at burst %d", burst)
		}
		prev = h
	}
	// Degenerate inputs clamp to 1.
	if VBRBurstReadAhead(3, VBRProfile{Rate: 30, PeakUnitBits: 8, AvgUnitBits: 8}, d, 4) != 1 {
		t.Fatal("zero overshoot should need 1 block")
	}
	if VBRBurstReadAhead(3, p, d, 0) != 1 {
		t.Fatal("zero burst should need 1 block")
	}
}

// Property: the average-based bound equals the fixed-rate bound of a
// medium with the average unit size — VBR analysis is consistent with
// the CBR equations it extends.
func TestVBRConsistentWithCBRQuick(t *testing.T) {
	d := testDevice()
	cfg := Config{Arch: Pipelined}
	f := func(rawQ, rawAvg uint8) bool {
		q := int(rawQ)%8 + 1
		avgBits := float64(rawAvg+1) * 1000
		p := VBRProfile{Rate: 30, PeakUnitBits: avgBits * 2, AvgUnitBits: avgBits}
		_, avg, okV := VBRMaxScattering(cfg, q, p, d)
		cbr, okC := MaxScattering(cfg, q, Media{Name: "c", UnitBits: avgBits, Rate: 30}, d)
		if okV != okC {
			return false
		}
		if !okV {
			return true
		}
		return avg == cbr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
