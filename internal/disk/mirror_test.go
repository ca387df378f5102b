package disk_test

import (
	"bytes"
	"testing"

	"mmfs/internal/disk"
	"mmfs/internal/fault"
)

func newMirrorArray(t *testing.T, p, stripe int) (*disk.Array, []*disk.Disk) {
	t.Helper()
	raw := make([]*disk.Disk, p)
	spindles := make([]disk.Device, p)
	for i := range spindles {
		raw[i] = disk.MustNew(arrayGeom())
		spindles[i] = raw[i]
	}
	a, err := disk.NewArray(spindles, stripe, true)
	if err != nil {
		t.Fatalf("NewArray (mirrored): %v", err)
	}
	return a, raw
}

func TestMirrorValidation(t *testing.T) {
	mk := func(n int) []disk.Device {
		s := make([]disk.Device, n)
		for i := range s {
			s[i] = disk.MustNew(arrayGeom())
		}
		return s
	}
	if _, err := disk.NewArray(mk(3), 4, true); err == nil {
		t.Fatal("odd spindle count accepted")
	}
	if _, err := disk.NewArray(mk(0), 4, true); err == nil {
		t.Fatal("empty spindle list accepted")
	}
	if _, err := disk.NewArray(mk(4), 5, true); err == nil {
		t.Fatal("non-dividing stripe unit accepted")
	}
}

func TestMirrorGeometryHalvesCapacity(t *testing.T) {
	a, _ := newMirrorArray(t, 4, 4)
	phys := arrayGeom()
	g := a.Geometry()
	if g.Cylinders != phys.Cylinders*2 {
		t.Fatalf("logical cylinders = %d, want %d (p/2 spindles' worth)", g.Cylinders, phys.Cylinders*2)
	}
	if a.Spindles() != 4 {
		t.Fatalf("spindles = %d, want 4 (all actuators steerable)", a.Spindles())
	}
	if !a.Mirrored() {
		t.Fatal("a mirrored array reports Mirrored() false")
	}
}

// Writes must land on both twins at the same local address; reads must
// steer inside the owning pair only.
func TestMirrorWriteDuplication(t *testing.T) {
	a, raw := newMirrorArray(t, 4, 4)
	spc := arrayGeom().SectorsPerCylinder()
	ss := arrayGeom().SectorSize
	// One sector per stripe group across the logical space.
	groups := a.Geometry().Cylinders / a.StripeCylinders()
	for g := 0; g < groups; g++ {
		lba := g * a.StripeCylinders() * spc
		data := bytes.Repeat([]byte{byte(g + 1)}, ss)
		if _, err := a.Write(lba, data); err != nil {
			t.Fatalf("write group %d: %v", g, err)
		}
		pair := g % 2
		slot := g / 2
		local := slot * a.StripeCylinders() * spc
		for tw := 0; tw < 2; tw++ {
			b, err := raw[2*pair+tw].ReadAt(local, 1)
			if err != nil {
				t.Fatalf("twin read: %v", err)
			}
			if b[0] != byte(g+1) {
				t.Fatalf("group %d twin %d holds %d, want %d", g, tw, b[0], g+1)
			}
		}
		// The steered read must come back from the owning pair.
		sp, _ := a.Locate(lba)
		if sp/2 != pair {
			t.Fatalf("group %d steered to spindle %d outside pair %d", g, sp, pair)
		}
		got, err := a.ReadAt(lba, 1)
		if err != nil || got[0] != byte(g+1) {
			t.Fatalf("steered read: %v %v", got[0], err)
		}
	}
}

// Balanced steering must deal alternate slots of a pair to alternate
// twins so both actuators carry read load.
func TestMirrorSteeringBalances(t *testing.T) {
	a, _ := newMirrorArray(t, 2, 4)
	spc := arrayGeom().SectorsPerCylinder()
	seen := [2]bool{}
	groups := a.Geometry().Cylinders / a.StripeCylinders()
	for g := 0; g < groups; g++ {
		sp, _ := a.Locate(g * a.StripeCylinders() * spc)
		seen[sp] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("steering uses only one twin: %v", seen)
	}
}

// A dead twin's slots must re-steer to the survivor after
// RefreshSteering, and back after it returns to health.
func TestMirrorDeadSteersToTwin(t *testing.T) {
	a, _ := newMirrorArray(t, 2, 4)
	spc := arrayGeom().SectorsPerCylinder()
	a.SetSpindleState(1, disk.Dead)
	if !a.RefreshSteering() {
		t.Fatal("RefreshSteering reported no change after a death")
	}
	groups := a.Geometry().Cylinders / a.StripeCylinders()
	for g := 0; g < groups; g++ {
		if sp, _ := a.Locate(g * a.StripeCylinders() * spc); sp != 0 {
			t.Fatalf("group %d still steered to dead spindle %d", g, sp)
		}
	}
	a.SetSpindleState(1, disk.Healthy)
	if !a.RefreshSteering() {
		t.Fatal("RefreshSteering reported no change after recovery")
	}
	seen := [2]bool{}
	for g := 0; g < groups; g++ {
		sp, _ := a.Locate(g * a.StripeCylinders() * spc)
		seen[sp] = true
	}
	if !seen[1] {
		t.Fatal("recovered twin receives no reads")
	}
}

// The health machine must walk Healthy → Suspect → Dead on consecutive
// read errors driven through the fault layer, and a clean read must
// clear Suspect.
func TestMirrorHealthStateMachine(t *testing.T) {
	g := arrayGeom()
	fd := fault.New(disk.MustNew(g), fault.Scenario{})
	twin := disk.MustNew(g)
	a, err := disk.NewArray([]disk.Device{fd, twin}, 4, true)
	if err != nil {
		t.Fatalf("NewArray (mirrored): %v", err)
	}
	spc := g.SectorsPerCylinder()
	buf := make([]byte, g.SectorSize)
	// Group 1 steers to spindle 1 under balanced steering... slot 1 is
	// odd, so pick a slot that steers to spindle 0 (the faulty one).
	lba := 0 // group 0, slot 0 → spindle 0
	if sp, _ := a.Locate(lba); sp != 0 {
		t.Fatalf("setup: lba 0 steered to %d", sp)
	}
	read := func() error {
		_, err := a.ReadInto(0, lba, 1, buf)
		return err
	}
	fd.FailNextReads(4)
	for i := 0; i < 4; i++ {
		if read() == nil {
			t.Fatal("injected fault did not surface")
		}
	}
	if st := a.SpindleState(0); st != disk.Suspect {
		t.Fatalf("after 4 errors state = %s, want suspect", st)
	}
	// A clean read clears Suspect.
	if err := read(); err != nil {
		t.Fatalf("clean read: %v", err)
	}
	if st := a.SpindleState(0); st != disk.Healthy {
		t.Fatalf("after clean read state = %s, want healthy", st)
	}
	// Eight consecutive errors kill it.
	fd.FailNextReads(8)
	for i := 0; i < 8; i++ {
		read()
	}
	if st := a.SpindleState(0); st != disk.Dead {
		t.Fatalf("after 8 errors state = %s, want dead", st)
	}
	_ = spc
}

// Rebuild must reconstruct a replaced spindle's contents from its twin
// and return it to Healthy; unwritten cylinders are skipped for free.
func TestMirrorRebuild(t *testing.T) {
	a, raw := newMirrorArray(t, 2, 4)
	g := arrayGeom()
	spc := g.SectorsPerCylinder()
	ss := g.SectorSize
	// Write a pattern into the first two stripe groups.
	for i := 0; i < 2*a.StripeCylinders(); i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, ss)
		if err := a.WriteAt(i*spc, data[:ss]); err != nil {
			t.Fatalf("seed write: %v", err)
		}
	}
	a.SetSpindleState(1, disk.Dead)
	a.RefreshSteering()
	// Hot-swap spindle 1 and rebuild it from spindle 0.
	repl := disk.MustNew(g)
	if err := a.ReplaceSpindle(1, repl); err != nil {
		t.Fatalf("ReplaceSpindle: %v", err)
	}
	if err := a.StartRebuild(1); err != nil {
		t.Fatalf("StartRebuild: %v", err)
	}
	if st := a.SpindleState(1); st != disk.Rebuilding {
		t.Fatalf("state = %s, want rebuilding", st)
	}
	buf := make([]byte, a.RepairBufferSectors()*ss)
	chunks := 0
	for {
		if _, ok := a.PeekRepairChunk(); !ok {
			break
		}
		if _, done, err := a.RepairChunk(buf); err != nil {
			t.Fatalf("RepairChunk: %v", err)
		} else if done {
			break
		}
		chunks++
		if chunks > g.Cylinders {
			t.Fatal("rebuild did not terminate")
		}
	}
	if a.RepairActive() {
		t.Fatal("repair still active after completion")
	}
	if st := a.SpindleState(1); st != disk.Healthy {
		t.Fatalf("state = %s, want healthy after rebuild", st)
	}
	// Only the materialized cylinders should have been copied.
	wantChunks := 2 * a.StripeCylinders()
	if chunks > wantChunks {
		t.Fatalf("copied %d chunks, want <= %d (unwritten cylinders skip free)", chunks, wantChunks)
	}
	// The rebuilt twin holds the pattern.
	for i := 0; i < 2*a.StripeCylinders(); i++ {
		b, err := repl.ReadAt(i*spc, 1)
		if err != nil || b[0] != byte(i+1) {
			t.Fatalf("rebuilt cylinder %d holds %d (%v), want %d", i, b[0], err, i+1)
		}
	}
	_ = raw
}

// Guard-rail checks on the repair API.
func TestMirrorRepairValidation(t *testing.T) {
	a, _ := newMirrorArray(t, 2, 4)
	if err := a.StartRebuild(0); err == nil {
		t.Fatal("rebuild of a healthy spindle accepted")
	}
	if err := a.StartRebuild(5); err == nil {
		t.Fatal("out-of-range rebuild target accepted")
	}
	plain := newTestArray(t, 2, 4)
	if err := plain.StartRebuild(0); err == nil {
		t.Fatal("rebuild on a non-mirrored array accepted")
	}
	// Abort drops a rebuild target back to Dead.
	a.SetSpindleState(1, disk.Dead)
	if err := a.StartRebuild(1); err != nil {
		t.Fatalf("StartRebuild: %v", err)
	}
	a.AbortRepair()
	if st := a.SpindleState(1); st != disk.Dead {
		t.Fatalf("after abort state = %s, want dead", st)
	}
	if a.RepairActive() {
		t.Fatal("repair active after abort")
	}
}
