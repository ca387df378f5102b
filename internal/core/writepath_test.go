package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/rope"
)

// smallOpts is a 25 MB disk with a tight placement policy: two clips
// recorded on it start some fifty cylinders apart, so splicing one into
// the other makes junctions that each need several blocks copied.
func smallOpts() Options {
	return Options{
		Geometry: disk.Geometry{
			Cylinders: 200, Surfaces: 2, SectorsPerTrack: 32, SectorSize: 2048,
			RPM: 3600, MinSeek: 2 * time.Millisecond, MaxSeek: 25 * time.Millisecond,
		},
		TargetCylinders: 8,
	}
}

func requireClean(t *testing.T, fs *FS, when string) {
	t.Helper()
	if problems := fs.Check(); len(problems) != 0 {
		t.Fatalf("%s: fsck: %v", when, problems)
	}
}

// A junction that runs out of space part-way must hand back the runs it
// already placed: on a disk filled to one block's worth of free sectors
// the INSERT's first copy lands, the second finds no room, and nothing
// may stay allocated that no strand owns. Interests must follow the
// rope on the error path too. Once space is freed the edit goes through.
func TestSmoothingFailureLeaksNothing(t *testing.T) {
	fs, err := Format(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	r1 := recordClip(t, fs, "venkat", 3, 8100)
	r2 := recordClip(t, fs, "venkat", 2, 8200)

	// A 32-sector hole — one 27-sector video block fits, two do not —
	// in an otherwise full disk.
	ss := fs.Disk().Geometry().SectorSize
	if err := fs.Text().Write("hole", make([]byte, 32*ss)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Text().Write("fill", make([]byte, fs.Allocator().FreeSectors()*ss)); err != nil {
		t.Fatal(err)
	}
	hole := fs.Text().Extents("hole")
	if len(hole) != 2 || hole[0].End() != hole[1].LBA {
		t.Fatalf("the hole file is not one contiguous run: %v", hole)
	}
	if err := fs.Text().Write("hole", nil); err != nil { // emptied: its sectors go back
		t.Fatal(err)
	}
	if free := fs.Allocator().FreeSectors(); free != 32 {
		t.Fatalf("%d sectors free, want the 32-sector hole", free)
	}

	_, err = fs.Insert("venkat", r1.ID, time.Second, rope.AudioVisual, r2.ID, 0, time.Second)
	if err == nil || !strings.Contains(err.Error(), "smoothing:") {
		t.Fatalf("INSERT on a full disk: %v, want a smoothing error", err)
	}
	requireClean(t, fs, "after the failed INSERT")
	if free := fs.Allocator().FreeSectors(); free != 32 {
		t.Fatalf("%d sectors free after the failed INSERT, want 32", free)
	}

	if err := fs.Text().Write("fill", nil); err != nil {
		t.Fatal(err)
	}
	res, err := fs.Insert("venkat", r1.ID, 2*time.Second, rope.AudioVisual, r2.ID, time.Second, time.Second)
	if err != nil {
		t.Fatalf("INSERT after freeing space: %v", err)
	}
	if res.CopiedBlocks() == 0 {
		t.Fatal("the retried INSERT smoothed nothing")
	}
	checkClean(t, fs)
}

// failingWrites fails every untimed write once its budget is spent.
type failingWrites struct {
	disk.Device
	left int // writes still allowed; negative means unlimited
}

var errInjectedWrite = errors.New("injected write failure")

func (f *failingWrites) WriteAt(lba int, data []byte) error {
	if f.left == 0 {
		return errInjectedWrite
	}
	if f.left > 0 {
		f.left--
	}
	return f.Device.WriteAt(lba, data)
}

// The same INSERT with the k-th untimed write failing, for every k up
// to the count a clean run makes: media copies and index blocks of the
// first junction, of the second (by which time the first is patched into
// the rope, so its copy strand's interest must have been registered on
// the way out), of the audio junctions. Whatever the failure point, fsck
// finds no leak and no interest mismatch.
func TestSmoothingWriteFailureAtEveryPoint(t *testing.T) {
	patchedThenFailed := 0
	for k := 0; ; k++ {
		base, err := Format(smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		dev := &failingWrites{Device: base.Disk(), left: -1}
		fs, err := Open(dev, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		r1 := recordClip(t, fs, "venkat", 3, 8100)
		r2 := recordClip(t, fs, "venkat", 2, 8200)

		dev.left = k
		_, err = fs.Insert("venkat", r1.ID, time.Second, rope.AudioVisual, r2.ID, 0, time.Second)
		dev.left = -1
		if err == nil {
			if patchedThenFailed == 0 {
				t.Fatalf("no failure point (of %d) lay behind a patched junction", k)
			}
			return
		}
		if !errors.Is(err, errInjectedWrite) {
			t.Fatalf("write %d: %v, want the injected failure", k, err)
		}
		requireClean(t, fs, fmt.Sprintf("after failing write %d", k))
		if len(r1.Strands()) > 4 { // its own two, the clip's two, and a copy strand
			patchedThenFailed++
		}
	}
}

// An INSERT that smooths a junction moves the write path's four series:
// the copied blocks and bytes by what the edit reports, and — once the
// server's Sync follows it — the Sync histogram and byte counter.
func TestWritePathMetrics(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := recordClip(t, fs, "venkat", 3, 8300)
	r2 := recordClip(t, fs, "venkat", 2, 8400)
	counter := func(name string) uint64 { return fs.Metrics().Counter(name).Value() }
	syncs := fs.Metrics().Histogram("mmfs_sync_seconds", nil)
	blocks0, bytes0 := counter("mmfs_edit_copied_blocks_total"), counter("mmfs_edit_copied_bytes_total")
	syncs0, syncBytes0 := syncs.Count(), counter("mmfs_sync_bytes_total")

	res, err := fs.Insert("venkat", r1.ID, time.Second, rope.AudioVisual, r2.ID, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if res.CopiedBlocks() == 0 {
		t.Fatal("the INSERT smoothed no junction")
	}
	if got := counter("mmfs_edit_copied_blocks_total") - blocks0; got != uint64(res.CopiedBlocks()) {
		t.Errorf("mmfs_edit_copied_blocks_total moved by %d, the edit copied %d", got, res.CopiedBlocks())
	}
	// A copied video block is 54 000 bytes, an audio block 3 200.
	if got := counter("mmfs_edit_copied_bytes_total") - bytes0; got < 3200*uint64(res.CopiedBlocks()) {
		t.Errorf("mmfs_edit_copied_bytes_total moved by %d for %d blocks", got, res.CopiedBlocks())
	}
	if got := syncs.Count() - syncs0; got != 1 {
		t.Errorf("mmfs_sync_seconds took %d observations for one Sync", got)
	}
	// The three tables, the bitmap's words, and the superblock's 14 fields.
	want := uint64(fs.strandTabLen + fs.ropeTabLen + fs.textTabLen + (fs.a.TotalSectors()+63)/64*8 + 14*4)
	if got := counter("mmfs_sync_bytes_total") - syncBytes0; got != want {
		t.Errorf("mmfs_sync_bytes_total moved by %d, the Sync encoded %d bytes", got, want)
	}
}
