package continuity

import (
	"testing"
	"testing/quick"
)

func TestCopyBoundFormulas(t *testing.T) {
	// Eq. 19: C = l_max/(2·l_lower); Eq. 20: C = l_max/l_lower.
	sparse, err := CopyBound(SparseDisk, 0.040, 0.010)
	if err != nil {
		t.Fatal(err)
	}
	if sparse != 2 {
		t.Fatalf("sparse bound %d, want 2", sparse)
	}
	dense, err := CopyBound(DenseDisk, 0.040, 0.010)
	if err != nil {
		t.Fatal(err)
	}
	if dense != 4 {
		t.Fatalf("dense bound %d, want 4", dense)
	}
	// Fractional ratios round up.
	if c, _ := CopyBound(DenseDisk, 0.041, 0.010); c != 5 {
		t.Fatalf("ceil broken: %d", c)
	}
}

func TestCopyBoundErrors(t *testing.T) {
	if _, err := CopyBound(SparseDisk, 0.04, 0); err == nil {
		t.Fatal("zero lower bound accepted")
	}
	if _, err := CopyBound(SparseDisk, 0.04, -0.01); err == nil {
		t.Fatal("negative lower bound accepted")
	}
	if _, err := CopyBound(SparseDisk, -0.01, 0.01); err == nil {
		t.Fatal("negative max seek accepted")
	}
}

func TestDenseIsTwiceSparse(t *testing.T) {
	// Property: the dense bound is always at least the sparse bound,
	// and at most one block more than twice it (from the ceilings).
	f := func(rawMax, rawLower uint16) bool {
		maxSeek := float64(rawMax%1000+1) / 1000
		lower := float64(rawLower%100+1) / 1000
		s, err1 := CopyBound(SparseDisk, maxSeek, lower)
		d, err2 := CopyBound(DenseDisk, maxSeek, lower)
		if err1 != nil || err2 != nil {
			return false
		}
		return d >= s && d <= 2*s+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyString(t *testing.T) {
	if SparseDisk.String() != "sparse" || DenseDisk.String() != "dense" {
		t.Fatal("occupancy names")
	}
}

func TestSwitchReadAhead(t *testing.T) {
	m := NTSCVideo() // 30 frames/s
	// h = ⌈l_max · R/q⌉: 38.3 ms of blocks at 10 blocks/s (q=3).
	if h := SwitchReadAhead(0.0383, 3, m); h != 1 {
		t.Fatalf("h = %d, want 1", h)
	}
	// Long-stroke device, single-frame blocks: 158 ms × 30 blk/s.
	if h := SwitchReadAhead(0.158, 1, m); h != 5 {
		t.Fatalf("h = %d, want 5", h)
	}
	if h := SwitchReadAhead(0, 1, m); h != 0 {
		t.Fatalf("h = %d, want 0", h)
	}
}

func TestFastForwardModel(t *testing.T) {
	m := NTSCVideo()
	d := testDevice()
	cfg := Config{Arch: Pipelined}
	const q = 3
	lds := 0.011

	normal := FastForward{Speed: 1}
	if !normal.Feasible(cfg, q, lds, m, d) {
		t.Fatal("normal speed infeasible")
	}
	// Without skipping, the effective rate scales.
	noSkip := FastForward{Speed: 2}
	if em := noSkip.EffectiveMedia(m); em.Rate != 60 {
		t.Fatalf("effective rate %g", em.Rate)
	}
	if noSkip.EffectiveScattering(lds) != lds {
		t.Fatal("no-skip must not stretch scattering")
	}
	if noSkip.BufferMultiplier() != 2 {
		t.Fatal("no-skip buffer multiplier")
	}
	// With skipping, the rate is unchanged but scattering stretches.
	skip := FastForward{Speed: 3, Skip: true}
	if em := skip.EffectiveMedia(m); em.Rate != 30 {
		t.Fatalf("skip effective rate %g", em.Rate)
	}
	if got := skip.EffectiveScattering(lds); got != 3*lds {
		t.Fatalf("skip scattering %g", got)
	}
	if skip.BufferMultiplier() != 1 {
		t.Fatal("skip buffer multiplier")
	}
	// Somewhere past the device's limit, no-skip fails while skip
	// survives (the §3.3.2 crossover).
	found := false
	for speed := 2.0; speed <= 32; speed *= 2 {
		ns := FastForward{Speed: speed}
		sk := FastForward{Speed: speed, Skip: true}
		if !ns.Feasible(cfg, q, lds, m, d) && sk.Feasible(cfg, q, lds, m, d) {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no crossover speed found")
	}
}
