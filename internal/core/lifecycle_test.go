package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// TestRandomLifecycle drives the whole file system through random
// operation sequences — record (CBR, VBR, heterogeneous), every §4.1
// editing operation, text files, triggers, rope deletion, compaction —
// and audits after every operation that
//
//  1. the integrity checker finds nothing,
//  2. every live rope still plays with zero continuity violations
//     (checked on a sample), and
//  3. the metadata survives a Sync/Open remount.
//
// Seeds are fixed so failures reproduce.
func TestRandomLifecycle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runLifecycle(t, seed)
		})
	}
}

func runLifecycle(t *testing.T, seed int64) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var live []rope.ID
	user := "fuzz"

	record := func() {
		kind := rng.Intn(3)
		seconds := 1 + rng.Intn(3)
		spec := RecordSpec{Creator: user}
		switch kind {
		case 0: // homogeneous AV
			spec.Video = media.NewVideoSource(30*seconds, 18000, 30, rng.Int63())
			spec.Audio = media.NewAudioSource(10*seconds, 800, 10, 0.3, 10, rng.Int63())
			spec.SilenceElimination = true
		case 1: // VBR video
			spec.Video = media.NewVBRVideoSource(30*seconds, 18000, 6000, 10, 30, rng.Int63())
		case 2: // heterogeneous
			spec.Video = media.NewVideoSource(30*seconds, 18000, 30, rng.Int63())
			spec.Audio = media.NewAudioSource(15*seconds, 800, 15, 0, 1, rng.Int63())
			spec.Heterogeneous = true
		}
		sess, err := fs.Record(spec)
		if err != nil {
			t.Fatalf("record: %v", err)
		}
		fs.Manager().RunUntilDone()
		r, err := sess.Finish()
		if err != nil {
			t.Fatalf("finish: %v", err)
		}
		live = append(live, r.ID)
	}
	record()
	record()

	pick := func() (*rope.Rope, rope.ID) {
		id := live[rng.Intn(len(live))]
		r, ok := fs.Ropes().Get(id)
		if !ok {
			t.Fatalf("live rope %d vanished", id)
		}
		return r, id
	}
	randRange := func(r *rope.Rope) (time.Duration, time.Duration) {
		if r.Length() < 200*time.Millisecond {
			return 0, r.Length()
		}
		start := time.Duration(rng.Int63n(int64(r.Length() / 2)))
		maxDur := r.Length() - start
		dur := time.Duration(rng.Int63n(int64(maxDur))) + 1
		return start, dur
	}

	audit := func(step int, op string) {
		t.Helper()
		if err := fs.Sync(); err != nil {
			t.Fatalf("step %d (%s): sync: %v", step, op, err)
		}
		if problems := fs.Check(); len(problems) != 0 {
			t.Fatalf("step %d (%s): fsck: %v", step, op, problems)
		}
		// Play one live rope to completion.
		if len(live) > 0 {
			r, id := pick()
			hasV, hasA := r.Components()
			if r.Length() > 0 && (hasV || hasA) {
				m := rope.VideoOnly
				if !hasV {
					m = rope.AudioOnly
				}
				h, err := fs.Play(user, id, m, 0, 0, msm.PlanOptions{ReadAhead: 2, Buffers: 8})
				if err != nil {
					t.Fatalf("step %d (%s): play rope %d: %v", step, op, id, err)
				}
				fs.Manager().RunUntilDone()
				if v, _ := fs.PlayViolations(h); v != 0 {
					t.Fatalf("step %d (%s): rope %d violated %d time(s)", step, op, id, v)
				}
			}
		}
	}

	const steps = 40
	for step := 0; step < steps; step++ {
		var op string
		switch rng.Intn(10) {
		case 0:
			op = "record"
			record()
		case 1:
			op = "insert"
			base, baseID := pick()
			with, _ := pick()
			if with.Length() >= 500*time.Millisecond && base.Length() > 0 {
				pos := time.Duration(rng.Int63n(int64(base.Length() + 1)))
				if _, err := fs.Insert(user, baseID, pos, rope.AudioVisual, with.ID, 0, 500*time.Millisecond); err != nil {
					t.Fatalf("insert: %v", err)
				}
			}
		case 2:
			op = "delete-range"
			base, baseID := pick()
			if base.Length() >= time.Second {
				m := []rope.Medium{rope.AudioVisual, rope.VideoOnly, rope.AudioOnly}[rng.Intn(3)]
				start, dur := randRange(base)
				if err := fs.ropes.Delete(base, m, start, dur); err != nil {
					t.Fatalf("delete range: %v", err)
				}
				if _, err := fs.finishEdit(base); err != nil {
					t.Fatalf("delete finish: %v", err)
				}
				_ = baseID
			}
		case 3:
			op = "substring"
			base, baseID := pick()
			if base.Length() >= 500*time.Millisecond {
				start, dur := randRange(base)
				sub, _, err := fs.Substring(user, baseID, rope.AudioVisual, start, dur)
				if err != nil {
					t.Fatalf("substring: %v", err)
				}
				live = append(live, sub.ID)
			}
		case 4:
			op = "concat"
			_, a := pick()
			_, b := pick()
			cat, _, err := fs.Concate(user, a, b)
			if err != nil {
				t.Fatalf("concat: %v", err)
			}
			live = append(live, cat.ID)
		case 5:
			op = "delete-rope"
			if len(live) > 2 {
				i := rng.Intn(len(live))
				if _, err := fs.DeleteRope(user, live[i]); err != nil {
					t.Fatalf("delete rope: %v", err)
				}
				live = append(live[:i], live[i+1:]...)
			}
		case 6:
			op = "text"
			name := fmt.Sprintf("note-%d", rng.Intn(4))
			if rng.Intn(3) == 0 && fs.Text().Len() > 0 {
				names := fs.Text().List()
				if err := fs.Text().Write(names[rng.Intn(len(names))], nil); err != nil {
					t.Fatalf("text truncate: %v", err)
				}
			} else {
				data := make([]byte, rng.Intn(8192))
				rng.Read(data)
				if err := fs.Text().Write(name, data); err != nil {
					t.Fatalf("text write: %v", err)
				}
			}
		case 7:
			op = "trigger"
			base, baseID := pick()
			if base.Length() > time.Second {
				at := time.Duration(rng.Int63n(int64(base.Length())))
				if err := fs.AddTrigger(user, baseID, at, fmt.Sprintf("mark-%d", step)); err != nil {
					t.Fatalf("trigger: %v", err)
				}
				if _, err := fs.Triggers(user, baseID); err != nil {
					t.Fatalf("triggers: %v", err)
				}
			}
		case 8:
			op = "compact"
			if rng.Intn(4) == 0 { // occasional: it is a heavy operation
				if _, err := fs.Compact(); err != nil {
					t.Fatalf("compact: %v", err)
				}
			}
		case 9:
			op = "reorganize"
			if len(live) > 0 {
				r, _ := pick()
				strands := r.Strands()
				if len(strands) > 0 {
					target := rng.Intn(fs.Disk().Geometry().Cylinders)
					if _, err := fs.ReorganizeStrand(strands[rng.Intn(len(strands))], target); err != nil {
						t.Fatalf("reorganize: %v", err)
					}
				}
			}
		}
		if step%8 == 0 {
			audit(step, op)
		}
	}
	audit(steps, "final")

	// Full remount: everything must come back identically playable.
	fs2, err := Open(fs.Disk(), fs.Options())
	if err != nil {
		t.Fatalf("remount: %v", err)
	}
	if problems := fs2.Check(); len(problems) != 0 {
		t.Fatalf("fsck after remount: %v", problems)
	}
	for _, id := range live {
		r, ok := fs2.Ropes().Get(id)
		if !ok {
			t.Fatalf("rope %d lost across remount", id)
		}
		hasV, hasA := r.Components()
		if r.Length() == 0 || (!hasV && !hasA) {
			continue
		}
		m := rope.VideoOnly
		if !hasV {
			m = rope.AudioOnly
		}
		h, err := fs2.Play(user, id, m, 0, 0, msm.PlanOptions{ReadAhead: 2, Buffers: 8})
		if err != nil {
			t.Fatalf("rope %d after remount: %v", id, err)
		}
		fs2.Manager().RunUntilDone()
		if v, _ := fs2.PlayViolations(h); v != 0 {
			t.Fatalf("rope %d violated %d time(s) after remount", id, v)
		}
	}
}
