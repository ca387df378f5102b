// Archive: long-lived operation of the file system — the §6.2
// extensions working together. A small archive station records
// variable-rate news footage day after day, retires old material,
// fragments its disk, hits the point where constrained placement
// fails, reorganizes (Compact), verifies itself with the integrity
// checker, and keeps synchronized-text triggers on its ropes.
//
// Run with: go run ./examples/archive
package main

import (
	"fmt"
	"log"
	"time"

	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

func main() {
	// A deliberately small disk so churn fragments it quickly.
	g := disk.Geometry{
		Cylinders:       200,
		Surfaces:        2,
		SectorsPerTrack: 32,
		SectorSize:      512,
		RPM:             3600,
		MinSeek:         2 * time.Millisecond,
		MaxSeek:         25 * time.Millisecond,
	}
	fs, err := core.Format(core.Options{Geometry: g, TargetCylinders: 16})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archive disk: %d KB\n", g.CapacityBytes()>>10)

	// Day after day: record variable-rate footage (§6.2's VBR —
	// intra frames at 4 KB, difference frames around 1 KB), retire
	// old items.
	recordDay := func(day int) *rope.Rope {
		sess, err := fs.Record(core.RecordSpec{
			Creator: "archivist",
			Video:   media.NewVBRVideoSource(60, 4096, 1024, 10, 30, int64(day)),
		})
		if err != nil {
			log.Fatal(err)
		}
		fs.Manager().RunUntilDone()
		r, err := sess.Finish()
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	var live []*rope.Rope
	day := 0
	for fs.Occupancy() < 0.90 && day < 500 {
		day++
		r := recordDay(day)
		if err := fs.AddTrigger("archivist", r.ID, 0, fmt.Sprintf("day %d: lead story", day)); err != nil {
			log.Fatal(err)
		}
		live = append(live, r)
	}
	// Retire every other item: the freed space is scattered in
	// block-sized holes between the survivors.
	var survivors []*rope.Rope
	for i, r := range live {
		if i%2 == 0 {
			if _, err := fs.DeleteRope("archivist", r.ID); err != nil {
				log.Fatal(err)
			}
			continue
		}
		survivors = append(survivors, r)
	}
	live = survivors
	fmt.Printf("after %d days of churn: occupancy %.0f%%, %d live item(s)\n",
		day, fs.Occupancy()*100, len(live))

	// The disk is now fragmented; a large-block master recording
	// fails partway.
	tryMaster := func(seed int64) (*rope.Rope, error) {
		sess, err := fs.Record(core.RecordSpec{
			Creator: "archivist",
			Video:   media.NewVideoSource(120, 18000, 30, seed), // 54 KB blocks
		})
		if err != nil {
			return nil, err
		}
		fs.Manager().RunUntilDone()
		return sess.Finish()
	}
	// Constrained-placement failure surfaces as a truncated capture:
	// the recorder drops blocks it cannot place (and logs them as
	// violations), exactly like a capture device with nowhere to put
	// its data.
	const wantLen = 4 * time.Second
	m1, err := tryMaster(9000)
	if err != nil {
		log.Fatal(err)
	}
	if m1.Length() >= wantLen {
		fmt.Println("master recording unexpectedly fit; disk not fragmented enough")
	} else {
		fmt.Printf("master recording truncated on the fragmented disk: %v of %v captured\n", m1.Length(), wantLen)
	}
	if _, err := fs.DeleteRope("archivist", m1.ID); err != nil {
		log.Fatal(err)
	}

	// §6.2: reorganize. Compact consolidates the scattered holes.
	rep, err := fs.Compact()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Compact(): moved %d strand(s), largest free run %d → %d sectors\n",
		rep.Moved, rep.LargestFreeRunBefore, rep.LargestFreeRunAfter)

	master, err := tryMaster(9001)
	if err != nil {
		log.Fatalf("master recording still fails after compaction: %v", err)
	}
	if master.Length() < wantLen {
		log.Fatalf("master recording still truncated after compaction: %v of %v", master.Length(), wantLen)
	}
	fmt.Printf("master recording succeeded after compaction: rope %d (%v)\n", master.ID, master.Length())

	// Everything still plays — including the relocated archive items.
	for _, r := range live {
		h, err := fs.Play("archivist", r.ID, rope.VideoOnly, 0, 0, msm.PlanOptions{ReadAhead: 2})
		if err != nil {
			log.Fatalf("rope %d: %v", r.ID, err)
		}
		fs.Manager().RunUntilDone()
		if v, _ := fs.PlayViolations(h); v != 0 {
			log.Fatalf("rope %d violated continuity %d time(s) after compaction", r.ID, v)
		}
		trigs, err := fs.Triggers("archivist", r.ID)
		if err != nil || len(trigs) != 1 {
			log.Fatalf("rope %d lost its trigger: %v %v", r.ID, trigs, err)
		}
	}
	fmt.Printf("all %d archive items play clean and keep their triggers\n", len(live))

	// Finally: the integrity checker agrees the disk is consistent.
	if err := fs.Sync(); err != nil {
		log.Fatal(err)
	}
	if problems := fs.Check(); len(problems) != 0 {
		for _, p := range problems {
			fmt.Println("  fsck:", p)
		}
		log.Fatal("integrity check failed")
	}
	fmt.Println("fsck: file system clean")
}
