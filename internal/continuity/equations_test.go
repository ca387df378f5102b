package continuity

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// testDevice is a disk of the paper's class: ~55 Mbit/s transfer,
// 38 ms worst-case access.
func testDevice() Device {
	return Device{TransferRate: 55e6, MaxAccess: 0.0383, MinAccess: 0.0103}
}

// hdtvVideo is the paper's motivating HDTV strand: 2.5 Gbit/s
// uncompressed at 60 frames/s.
func hdtvVideo() Media {
	return Media{Name: "hdtv", UnitBits: 2.5e9 / 60, Rate: 60}
}

func TestMediaValidate(t *testing.T) {
	if err := NTSCVideo().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := TelephoneAudio().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := hdtvVideo().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Media{
		{Name: "x", UnitBits: 0, Rate: 30},
		{Name: "x", UnitBits: 8, Rate: 0},
		{Name: "x", UnitBits: 8, Rate: 30, DisplayRate: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad media %d accepted", i)
		}
	}
}

func TestDeviceValidate(t *testing.T) {
	if err := testDevice().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Device{
		{TransferRate: 0, MaxAccess: 1},
		{TransferRate: 1, MaxAccess: -1},
		{TransferRate: 1, MaxAccess: 0.1, MinAccess: 0.2},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad device %d accepted", i)
		}
	}
}

func TestMediaQuantities(t *testing.T) {
	m := Media{Name: "v", UnitBits: 1000, Rate: 25, DisplayRate: 50000}
	if m.BitRate() != 25000 {
		t.Fatalf("bit rate %g", m.BitRate())
	}
	if m.BlockBits(4) != 4000 {
		t.Fatalf("block bits %g", m.BlockBits(4))
	}
	if m.PlaybackDuration(5) != 0.2 {
		t.Fatalf("playback %g", m.PlaybackDuration(5))
	}
	if m.DisplayTime(4) != 4000.0/50000 {
		t.Fatalf("display %g", m.DisplayTime(4))
	}
	m.DisplayRate = 0
	if m.DisplayTime(4) != 0 {
		t.Fatal("unmodeled display path must cost zero")
	}
}

func TestArchOrderingOfScatteringBounds(t *testing.T) {
	// For any granularity, pipelined admits at least as much
	// scattering as sequential, and concurrent (p≥2) at least as
	// much as pipelined.
	m := NTSCVideo()
	d := testDevice()
	for q := 1; q <= 32; q *= 2 {
		seq, okS := MaxScattering(Config{Arch: Sequential}, q, m, d)
		pipe, okP := MaxScattering(Config{Arch: Pipelined}, q, m, d)
		conc, okC := MaxScattering(Config{Arch: Concurrent, P: 2}, q, m, d)
		if !okS || !okP || !okC {
			t.Fatalf("q=%d: unexpected infeasibility", q)
		}
		if !(seq <= pipe && pipe <= conc) {
			t.Fatalf("q=%d: bounds not ordered: seq %g pipe %g conc %g", q, seq, pipe, conc)
		}
	}
}

func TestFeasibleMatchesMaxScattering(t *testing.T) {
	// Property: Feasible is true exactly up to MaxScattering.
	m := NTSCVideo()
	d := testDevice()
	cfgs := []Config{{Arch: Sequential}, {Arch: Pipelined}, {Arch: Concurrent, P: 4}}
	f := func(rawQ uint8, rawFrac uint8, rawCfg uint8) bool {
		q := int(rawQ)%32 + 1
		cfg := cfgs[int(rawCfg)%len(cfgs)]
		bound, ok := MaxScattering(cfg, q, m, d)
		if !ok {
			return true
		}
		// Stay strictly below the bound: frac = 1.0 would probe the
		// float boundary itself, where Feasible may round either way.
		frac := float64(rawFrac) / 256 // in [0,1)
		below := bound * frac
		above := bound + 0.001 + bound*frac
		return Feasible(cfg, q, below, m, d) && !Feasible(cfg, q, above, m, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSlackSignAgreement(t *testing.T) {
	m := NTSCVideo()
	d := testDevice()
	cfg := Config{Arch: Pipelined}
	bound, _ := MaxScattering(cfg, 3, m, d)
	if s := Slack(cfg, 3, bound, m, d); math.Abs(s) > 1e-9 {
		t.Fatalf("slack at the bound should be ~0, got %g", s)
	}
	if s := Slack(cfg, 3, bound/2, m, d); s <= 0 {
		t.Fatal("slack below bound should be positive")
	}
	if s := Slack(cfg, 3, bound*2, m, d); s >= 0 {
		t.Fatal("slack above bound should be negative")
	}
}

func TestInfeasibleMediumOnSlowDevice(t *testing.T) {
	// HDTV at 2.5 Gbit/s cannot run on a 55 Mbit/s device.
	m := hdtvVideo()
	d := testDevice()
	if _, ok := MaxScattering(Config{Arch: Pipelined}, 4, m, d); ok {
		t.Fatal("HDTV feasible on a 55 Mbit/s disk?")
	}
}

func TestGranularityFromBuffers(t *testing.T) {
	cases := []struct {
		cfg  Config
		buf  int
		want int
	}{
		{Config{Arch: Sequential}, 6, 6},
		{Config{Arch: Pipelined}, 6, 3},
		{Config{Arch: Concurrent, P: 3}, 6, 2},
		{Config{Arch: Pipelined}, 0, 0},
	}
	for i, c := range cases {
		if got := GranularityFromBuffers(c.cfg, c.buf); got != c.want {
			t.Errorf("case %d: got %d want %d", i, got, c.want)
		}
	}
}

func TestBufferRules(t *testing.T) {
	// §3.3.2: average k/2k/pk buffers; read-ahead k/k/pk.
	seq := Config{Arch: Sequential}
	pipe := Config{Arch: Pipelined}
	conc := Config{Arch: Concurrent, P: 5}
	if seq.AvgBuffers(7) != 7 || pipe.AvgBuffers(7) != 14 || conc.AvgBuffers(7) != 35 {
		t.Fatal("average buffer rule")
	}
	if seq.ReadAhead(7) != 7 || pipe.ReadAhead(7) != 7 || conc.ReadAhead(7) != 35 {
		t.Fatal("read-ahead rule")
	}
}

func TestDerive(t *testing.T) {
	m := NTSCVideo()
	d := testDevice()
	dv, err := Derive(Config{Arch: Pipelined}, 6, m, d)
	if err != nil {
		t.Fatal(err)
	}
	if dv.Granularity != 3 {
		t.Fatalf("granularity %d, want 3 (pipelined, 6-frame buffer)", dv.Granularity)
	}
	want := m.PlaybackDuration(3) - d.TransferTime(m.BlockBits(3))
	if math.Abs(dv.MaxScattering-want) > 1e-12 {
		t.Fatalf("scattering %g, want %g", dv.MaxScattering, want)
	}
	if dv.MinScattering != d.MinAccess {
		t.Fatalf("min scattering %g", dv.MinScattering)
	}
	// Errors propagate.
	if _, err := Derive(Config{Arch: Concurrent, P: 1}, 6, m, d); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := Derive(Config{Arch: Pipelined}, 1, m, d); err == nil {
		t.Fatal("buffer too small for pipelined q ≥ 1 accepted")
	}
	if _, err := Derive(Config{Arch: Pipelined}, 6, hdtvVideo(), d); err == nil {
		t.Fatal("infeasible medium accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Arch: Concurrent, P: 1}).Validate(); err == nil {
		t.Fatal("concurrent p=1 accepted")
	}
	if err := (Config{Arch: Arch(9)}).Validate(); err == nil {
		t.Fatal("unknown arch accepted")
	}
	if err := (Config{Arch: Pipelined}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestArchString(t *testing.T) {
	if Sequential.String() != "sequential" || Pipelined.String() != "pipelined" || Concurrent.String() != "concurrent" {
		t.Fatal("arch names")
	}
}

func TestSecondsDurationRoundTrip(t *testing.T) {
	f := func(raw int32) bool {
		d := time.Duration(raw) * time.Microsecond
		if d < 0 {
			d = -d
		}
		return Duration(Seconds(d)) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
