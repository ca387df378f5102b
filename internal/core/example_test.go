package core_test

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"mmfs/internal/core"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// Example records a short audio+video rope, plays it back with
// continuity accounting, and edits it — the whole §4.1 interface in a
// dozen lines.
func Example() {
	fs, err := core.Format(core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// RECORD two seconds of video plus audio with silence elimination.
	sess, err := fs.Record(core.RecordSpec{
		Creator:            "demo",
		Video:              media.NewVideoSource(60, 18000, 30, 1),
		Audio:              media.NewAudioSource(20, 800, 10, 0.3, 5, 2),
		SilenceElimination: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fs.Manager().RunUntilDone() // drive the virtual clock
	r, err := sess.Finish()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recorded:", r.Length())

	// PLAY both media; zero violations means every block made its
	// deadline.
	h, err := fs.Play("demo", r.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		log.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	viol, _ := fs.PlayViolations(h)
	fmt.Println("violations:", viol)

	// Copy-free editing: keep only the first second.
	clip, _, err := fs.Substring("demo", r.ID, rope.AudioVisual, 0, time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("clip:", clip.Length())

	// Output:
	// recorded: 2s
	// violations: 0
	// clip: 1s
}

// ExampleFS_Record_heterogeneous stores both media in one strand of
// composite units (§3.3.3's heterogeneous blocks): one disk access per
// block and implicit synchronization.
func ExampleFS_Record_heterogeneous() {
	fs, err := core.Format(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sess, err := fs.Record(core.RecordSpec{
		Creator:       "demo",
		Video:         media.NewVideoSource(30, 18000, 30, 1),
		Audio:         media.NewAudioSource(15, 800, 15, 0, 1, 2),
		Heterogeneous: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	r, err := sess.Finish()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("strands:", len(r.Strands()))

	units, err := fs.FetchUnits("demo", r.ID, rope.VideoOnly, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	// A composite unit is [u32 video length][frame][audio].
	n := binary.LittleEndian.Uint32(units[0])
	frame, audio := units[0][4:4+n], units[0][4+n:]
	fmt.Println("frame bytes:", len(frame), "audio bytes:", len(audio))

	// Output:
	// strands: 1
	// frame bytes: 18000 audio bytes: 400
}

// ExampleFS_Check shows the integrity checker on a healthy file
// system.
func ExampleFS_Check() {
	fs, err := core.Format(core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("problems:", len(fs.Check()))
	// Output:
	// problems: 0
}
