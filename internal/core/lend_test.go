package core

import (
	"bytes"
	"testing"

	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// Service rounds read lent blocks — slices of the simulated platters —
// and must leave them as they found them. After many-stream rounds on
// every lane (parallel lanes on a striped array; the serial lane with a
// small, evicting cache on one disk), a record, and more rounds, the
// file system checks clean and every frame of every rope is byte for byte
// what was recorded.
func TestRoundsDoNotScribbleOnLentBlocks(t *testing.T) {
	for name, opts := range map[string]Options{
		"striped lanes":        {Disks: 4},
		"serial lane, caching": {CacheMB: 1},
	} {
		t.Run(name, func(t *testing.T) {
			fs, err := Format(opts)
			if err != nil {
				t.Fatal(err)
			}
			const seconds = 3
			var ropes []*rope.Rope
			seeds := []int64{4000, 4010, 4020, 4030, 4040, 4999}
			for _, seed := range seeds[:5] {
				ropes = append(ropes, recordClip(t, fs, "venkat", seconds, seed))
			}
			playAll := func() {
				t.Helper()
				played := 0
				for pass := 0; pass < 3; pass++ {
					for _, r := range ropes {
						if _, err := fs.Play("venkat", r.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2}); err == nil {
							played++
						}
					}
					fs.Manager().RunRound() // stagger the passes: followers trail leaders
				}
				if played < len(ropes) {
					t.Fatalf("only %d plays admitted", played)
				}
				fs.Manager().RunUntilDone()
			}
			playAll()
			ropes = append(ropes, recordClip(t, fs, "venkat", seconds, seeds[5]))
			playAll()

			if problems := fs.Check(); len(problems) != 0 {
				t.Fatalf("check: %v", problems)
			}
			for j, r := range ropes {
				frames, err := fs.FetchUnits("venkat", r.ID, rope.VideoOnly, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(frames) != 30*seconds {
					t.Fatalf("rope %d: %d frames", r.ID, len(frames))
				}
				for i, f := range frames {
					if !bytes.Equal(f, media.FramePayload(seeds[j], uint64(i), len(f))) {
						t.Fatalf("rope %d frame %d is not what was recorded", r.ID, i)
					}
				}
				if _, err := fs.FetchUnits("venkat", r.ID, rope.AudioOnly, 0, 0); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
