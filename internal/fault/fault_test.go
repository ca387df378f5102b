package fault

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/obs"
)

func testGeometry() disk.Geometry {
	return disk.Geometry{
		Cylinders:       64,
		Surfaces:        2,
		SectorsPerTrack: 16,
		SectorSize:      512,
		RPM:             3600,
		MinSeek:         2 * time.Millisecond,
		MaxSeek:         30 * time.Millisecond,
	}
}

// timedRead is ReadInto with a buffer of its own.
func timedRead(d disk.Device, lba, n int) ([]byte, time.Duration, error) {
	buf := make([]byte, n*d.Geometry().SectorSize)
	t, err := d.ReadInto(0, lba, n, buf)
	return buf, t, err
}

func TestParseScenario(t *testing.T) {
	sc, err := ParseScenario("seed=7,readerr=0.05,writeerr=0.01,slow=0.1x4,bad=100+50,bad=900+8")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if sc.Seed != 7 || sc.ReadErrorRate != 0.05 || sc.WriteErrorRate != 0.01 {
		t.Fatalf("rates wrong: %+v", sc)
	}
	if sc.SlowdownRate != 0.1 || sc.SlowdownFactor != 4 {
		t.Fatalf("slowdown wrong: %+v", sc)
	}
	if len(sc.BadSectors) != 2 || sc.BadSectors[0] != (SectorRange{100, 50}) || sc.BadSectors[1] != (SectorRange{900, 8}) {
		t.Fatalf("bad sectors wrong: %+v", sc.BadSectors)
	}
	if !sc.Active() {
		t.Fatal("scenario should be active")
	}
	// String must round-trip to an equivalent scenario.
	again, err := ParseScenario(sc.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", sc.String(), err)
	}
	if again.String() != sc.String() {
		t.Fatalf("round trip %q != %q", again.String(), sc.String())
	}
}

func TestParseScenarioInactive(t *testing.T) {
	for _, spec := range []string{"", "off", "none", "  "} {
		sc, err := ParseScenario(spec)
		if err != nil {
			t.Fatalf("parse %q: %v", spec, err)
		}
		if sc.Active() {
			t.Fatalf("parse %q: should be inactive", spec)
		}
	}
}

func TestParseScenarioErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus",
		"key=1",
		"readerr=2",
		"readerr=-0.5",
		"readerr=x",
		"slow=0.5",
		"slow=0.5x0.5",
		"bad=10",
		"bad=-1+5",
		"bad=10+0",
		"seed=abc",
	} {
		if _, err := ParseScenario(spec); err == nil {
			t.Errorf("parse %q: expected error", spec)
		}
	}
}

// TestInactivePassThrough verifies the wrapper is a no-op under the
// zero scenario: identical data, identical service times, zero fault
// stats.
func TestInactivePassThrough(t *testing.T) {
	base := disk.MustNew(testGeometry())
	ref := disk.MustNew(testGeometry())
	fd := New(base, Scenario{})
	payload := make([]byte, 3*512)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := fd.WriteAt(40, payload); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteAt(40, payload); err != nil {
		t.Fatal(err)
	}
	got, tGot, err := timedRead(fd, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, tWant, err := timedRead(ref, 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tGot != tWant {
		t.Fatalf("service time altered: %v != %v", tGot, tWant)
	}
	if string(got) != string(want) {
		t.Fatal("data altered")
	}
	if fd.FaultStats() != (Stats{}) {
		t.Fatalf("inactive scenario injected faults: %+v", fd.FaultStats())
	}
}

// TestDeterminism verifies equal seeds and access sequences produce
// identical fault streams.
func TestDeterminism(t *testing.T) {
	run := func() ([]bool, Stats) {
		fd := New(disk.MustNew(testGeometry()), Scenario{Seed: 42, ReadErrorRate: 0.3, SlowdownRate: 0.2, SlowdownFactor: 2})
		var errs []bool
		for i := 0; i < 200; i++ {
			_, _, err := timedRead(fd, (i*3)%1024, 1)
			errs = append(errs, err != nil)
		}
		return errs, fd.FaultStats()
	}
	a, sa := run()
	b, sb := run()
	if sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault stream diverged at access %d", i)
		}
	}
	if sa.ReadErrors == 0 {
		t.Fatal("expected some injected read errors at rate 0.3")
	}
}

func TestBadSectorPersistent(t *testing.T) {
	fd := New(disk.MustNew(testGeometry()), Scenario{Seed: 1, BadSectors: []SectorRange{{Start: 10, Count: 4}}})
	for i := 0; i < 5; i++ {
		_, _, err := timedRead(fd, 12, 2)
		if !errors.Is(err, ErrBadSector) {
			t.Fatalf("attempt %d: got %v, want ErrBadSector", i, err)
		}
	}
	// Adjacent-but-disjoint access succeeds.
	if _, _, err := timedRead(fd, 14, 2); err != nil {
		t.Fatalf("disjoint read: %v", err)
	}
	// Writes into the defect fail too.
	if _, err := fd.Write(11, make([]byte, 512)); !errors.Is(err, ErrBadSector) {
		t.Fatal("write into bad range should fail")
	}
	if fd.FaultStats().BadSectors != 6 {
		t.Fatalf("bad sector count %d, want 6", fd.FaultStats().BadSectors)
	}
}

func TestSlowdownChargesVirtualTime(t *testing.T) {
	base := disk.MustNew(testGeometry())
	ref := disk.MustNew(testGeometry())
	fd := New(base, Scenario{Seed: 1, SlowdownRate: 1, SlowdownFactor: 3})
	_, tGot, err := timedRead(fd, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, tWant, err := timedRead(ref, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tGot != 3*tWant {
		t.Fatalf("spiked time %v, want 3×%v", tGot, tWant)
	}
	st := fd.FaultStats()
	if st.Slowdowns != 1 || st.SpikeTime != 2*tWant {
		t.Fatalf("spike stats %+v, want 1 slowdown of %v", st, 2*tWant)
	}
}

func TestFailNextReadsAndObs(t *testing.T) {
	fd := New(disk.MustNew(testGeometry()), Scenario{Seed: 1, ReadErrorRate: 0.0001})
	reg := obs.NewRegistry()
	fd.SetObs(reg)
	fd.FailNextReads(2)
	for i := 0; i < 2; i++ {
		if _, _, err := timedRead(fd, 0, 1); !errors.Is(err, ErrTransient) {
			t.Fatalf("forced read %d: got %v", i, err)
		}
	}
	if _, _, err := timedRead(fd, 0, 1); err != nil {
		t.Fatalf("after forced failures: %v", err)
	}
	if got := reg.Counter("mmfs_fault_read_errors_total").Value(); got != 2 {
		t.Fatalf("obs counter %d, want 2", got)
	}
}

// TestWriteTransient verifies write-path injection reports the base
// service time alongside the error.
func TestWriteTransient(t *testing.T) {
	fd := New(disk.MustNew(testGeometry()), Scenario{Seed: 3, WriteErrorRate: 1})
	tw, err := fd.Write(50, make([]byte, 512))
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("got %v, want ErrTransient", err)
	}
	if tw <= 0 {
		t.Fatal("failed write should still report its service time")
	}
	if fd.FaultStats().WriteErrors != 1 {
		t.Fatalf("write error count %d", fd.FaultStats().WriteErrors)
	}
}

// TestDieRound verifies whole-device death: the device serves normally
// until the caller's round counter passes DieRound, then every timed
// access fails permanently with ErrDeviceDead.
func TestDieRound(t *testing.T) {
	sc, err := ParseScenario("die=3")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if sc.DieRound != 3 || !sc.Active() {
		t.Fatalf("die scenario wrong: %+v", sc)
	}
	again, err := ParseScenario(sc.String())
	if err != nil || again.DieRound != 3 {
		t.Fatalf("round trip %q: %+v, %v", sc.String(), again, err)
	}
	fd := New(disk.MustNew(testGeometry()), sc)
	buf := make([]byte, testGeometry().SectorSize)
	// Rounds 1..3: alive.
	for r := 1; r <= 3; r++ {
		fd.AdvanceRound()
		if _, err := fd.ReadInto(0, 0, 1, buf); err != nil {
			t.Fatalf("round %d read: %v", r, err)
		}
	}
	if fd.Dead() {
		t.Fatal("dead before DieRound passed")
	}
	// Round 4 onward: dead, reads and writes alike, forever.
	fd.AdvanceRound()
	if !fd.Dead() {
		t.Fatal("not dead after DieRound passed")
	}
	for i := 0; i < 3; i++ {
		if _, err := fd.ReadInto(0, 0, 1, buf); !errors.Is(err, ErrDeviceDead) {
			t.Fatalf("dead read %d: %v, want ErrDeviceDead", i, err)
		}
	}
	if _, err := fd.Write(0, buf); !errors.Is(err, ErrDeviceDead) {
		t.Fatalf("dead write: %v, want ErrDeviceDead", err)
	}
	if st := fd.FaultStats(); st.DeadErrors != 4 {
		t.Fatalf("DeadErrors = %d, want 4", st.DeadErrors)
	}
	// Untimed metadata access stays alive (the wrapper only kills the
	// timed data path, like the other scenario knobs).
	if _, err := fd.ReadAt(0, 1); err != nil {
		t.Fatalf("untimed read after death: %v", err)
	}
}

// TestDieRoundParseErrors rejects non-positive or malformed rounds.
func TestDieRoundParseErrors(t *testing.T) {
	for _, spec := range []string{"die=0", "die=-1", "die=", "die=x"} {
		if _, err := ParseScenario(spec); err == nil {
			t.Errorf("parse %q: expected error", spec)
		}
	}
}

// TestReadViewInjectsLikeReadInto: the lending read draws from the
// fault stream exactly as the copying one does. Two identically seeded
// devices, one driven through ReadView and one through ReadInto, must
// report the same (t, err) sequence and the same fault and disk
// statistics — bad sectors, forced failures, a scripted death and both
// RNG draws included — and a faulted read never returns data. (Were
// ReadView merely promoted from the embedded *disk.Disk, every error
// here would be missing.)
func TestReadViewInjectsLikeReadInto(t *testing.T) {
	sc, err := ParseScenario("seed=11,readerr=0.05,slow=0.1x4,bad=640+32,die=9000")
	if err != nil {
		t.Fatal(err)
	}
	g := testGeometry()
	mk := func() *Disk {
		base := disk.MustNew(g)
		payload := make([]byte, 40*g.SectorsPerCylinder()*g.SectorSize)
		rand.New(rand.NewSource(3)).Read(payload)
		if err := base.WriteAt(0, payload); err != nil { // cylinders 40.. stay unmaterialised
			t.Fatal(err)
		}
		return New(base, sc)
	}
	view, into := mk(), mk()
	pick := rand.New(rand.NewSource(5))
	scratch, dst := make([]byte, 16*g.SectorSize), make([]byte, 16*g.SectorSize)
	failed := 0
	for i := 0; i < 10000; i++ {
		view.AdvanceRound()
		into.AdvanceRound()
		if i == 2000 {
			view.FailNextReads(3)
			into.FailNextReads(3)
		}
		n := 1 + pick.Intn(16)
		lba := pick.Intn(g.TotalSectors() - n)
		data, tv, errv := view.ReadView(lba, n, scratch)
		ti, erri := into.ReadInto(0, lba, n, dst)
		if tv != ti || errv != erri {
			t.Fatalf("read %d [%d,+%d): ReadView (%v, %v), ReadInto (%v, %v)", i, lba, n, tv, errv, ti, erri)
		}
		if errv != nil {
			failed++
			if data != nil {
				t.Fatalf("read %d: data returned with %v", i, errv)
			}
			continue
		}
		if !bytes.Equal(data, dst[:n*g.SectorSize]) {
			t.Fatalf("read %d [%d,+%d): bytes differ", i, lba, n)
		}
	}
	if view.FaultStats() != into.FaultStats() || view.Stats() != into.Stats() {
		t.Fatalf("stats diverged:\n view %+v %+v\n into %+v %+v", view.FaultStats(), view.Stats(), into.FaultStats(), into.Stats())
	}
	st := view.FaultStats()
	if st.BadSectors == 0 || st.Slowdowns == 0 || st.DeadErrors != 1000 || st.ReadErrors < 1003 || failed == 0 {
		t.Fatalf("the run did not exercise every fault kind: %+v (failed %d)", st, failed)
	}
}
