package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mmfs/internal/cache"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// walkMutation names the protection a platterWalk runs without.
type walkMutation int

const (
	intact        walkMutation = iota
	noRemovalHook              // the strand store tells nobody of a removal
)

// cacheMatchesPlatters is the integrity oracle of a cache that retains
// views: the cache's own invariants hold, and every resident block —
// view or copy — belongs to a live strand and is, byte for byte, what
// that strand's reader fetches from the platters now.
func cacheMatchesPlatters(fs *FS) error {
	c := fs.Manager().Cache()
	if err := cache.CheckInvariants(c); err != nil {
		return err
	}
	var err error
	c.VisitEntries(func(sid strand.ID, index int, data []byte, lent bool) {
		if err != nil {
			return
		}
		s, ok := fs.Strands().Get(sid)
		if !ok {
			err = fmt.Errorf("block %d of strand %d is cached (lent=%v) but the strand is gone", index, sid, lent)
			return
		}
		var scratch []byte
		want, silent, rerr := strand.NewReader(fs.Disk(), s).BlockView(index, &scratch)
		switch {
		case rerr != nil:
			err = fmt.Errorf("strand %d block %d: %v", sid, index, rerr)
		case silent:
			err = fmt.Errorf("strand %d block %d is a silence holder, yet cached", sid, index)
		case len(data) > len(want) || !bytes.Equal(data, want[:len(data)]):
			err = fmt.Errorf("strand %d block %d: the cached bytes (lent=%v) are not the platters'", sid, index, lent)
		}
	})
	return err
}

// platterWalk drives a file system through a seeded random interleaving
// of everything that reads into, empties or could invalidate the
// interval cache — staggered plays (leaders and the followers that
// trail them), rounds, RECORD, rope DELETE with its garbage collection,
// ReorganizeStrand, Compact, NewManager and, on a mirrored array, a
// scripted spindle death, operator kills and ReplaceSpindle + online
// rebuild, all with plays running — and asks the oracle after every step. It returns the oracle's first
// complaint. Operations that free sectors first let the running plays
// finish: a play that outlives its strand is a use-after-free above the
// cache, not the subject here. A mutation takes one of the cache's
// protections away, to show the oracle notices.
func platterWalk(seed int64, mirrored bool, steps int, mut walkMutation) error {
	rng := rand.New(rand.NewSource(seed))
	opts := Options{CacheMB: 1}
	if mirrored {
		// Small spindles and a fine stripe, so that the clips fill a good
		// part of the stripe groups and every rebuild has live data to copy.
		g := disk.DefaultGeometry()
		g.Cylinders = 120
		opts = Options{CacheMB: 1, Geometry: g, Disks: 4, Mirror: true, Stripe: 2, RebuildRate: 16, FaultSpindle: 1}
		sc, err := fault.ParseScenario(fmt.Sprintf("seed=%d,die=%d", seed, 30+rng.Intn(30)))
		if err != nil {
			return err
		}
		opts.Fault = sc
	}
	fs, err := Format(opts)
	if err != nil {
		return err
	}
	if mut == noRemovalHook {
		fs.Strands().OnRemove(nil)
	}
	var ropes []*rope.Rope
	record := func() error {
		seconds := 1 + rng.Intn(3)
		clipSeed := 9000 + rng.Int63n(1000)
		sess, err := fs.Record(RecordSpec{
			Creator:            "venkat",
			Video:              media.NewVideoSource(30*seconds, 18000, 30, clipSeed),
			Audio:              media.NewAudioSource(10*seconds, 800, 10, 0.3, 4, clipSeed+1),
			SilenceElimination: true,
		})
		if err != nil {
			return err
		}
		fs.Manager().RunUntilDone()
		r, err := sess.Finish()
		if err != nil {
			return err
		}
		ropes = append(ropes, r)
		return nil
	}
	for i := 0; i < 4; i++ {
		if err := record(); err != nil {
			return err
		}
	}
	play := func(r *rope.Rope) {
		m := rope.VideoOnly
		if rng.Intn(3) == 0 {
			m = rope.AudioVisual
		}
		// A rejected admission is an outcome, not a fault.
		fs.Play("venkat", r.ID, m, 0, 0, msm.PlanOptions{ReadAhead: 2})
	}
	// settle is the operator's half of a health change (see
	// disk.Array.SetSpindleState): steering follows health before anything
	// reads or writes the array outside a round — a reorganization, or the
	// oracle itself. Rounds do it for themselves.
	settle := func() {
		if mirrored {
			fs.Array().RefreshSteering()
		}
	}
	rebuilt := false
	for step := 0; step < steps; step++ {
		settle()
		var what string
		switch op := rng.Intn(100); {
		case op < 25:
			what = "staggered plays"
			r := ropes[rng.Intn(len(ropes))]
			play(r)
			for i := rng.Intn(4); i >= 0; i-- {
				fs.Manager().RunRound()
			}
			play(r)
		case op < 60:
			what = "rounds"
			for i := rng.Intn(6); i >= 0; i-- {
				fs.Manager().RunRound()
			}
		case op < 66:
			what = "record"
			if err := record(); err != nil {
				return fmt.Errorf("step %d (%s): %w", step, what, err)
			}
		case op < 72 && len(ropes) > 2:
			what = "delete + collect"
			fs.Manager().RunUntilDone()
			i := rng.Intn(len(ropes))
			if _, err := fs.DeleteRope("venkat", ropes[i].ID); err != nil {
				return fmt.Errorf("step %d (%s): %w", step, what, err)
			}
			ropes = append(ropes[:i], ropes[i+1:]...)
		case op < 78:
			what = "reorganize"
			fs.Manager().RunUntilDone()
			ids := fs.Strands().IDs()
			id := ids[rng.Intn(len(ids))]
			if _, err := fs.ReorganizeStrand(id, rng.Intn(fs.Allocator().Geometry().Cylinders)); err != nil {
				return fmt.Errorf("step %d (%s): %w", step, what, err)
			}
		case op < 81:
			what = "compact"
			fs.Manager().RunUntilDone()
			if _, err := fs.Compact(); err != nil {
				return fmt.Errorf("step %d (%s): %w", step, what, err)
			}
		case op < 85:
			what = "new manager"
			fs.NewManager()
		case !mirrored:
			continue
		case op < 89:
			// Never in pair 0, whose spindle 1 dies by script: a pair that
			// loses both twins has lost its data, cache or no cache.
			what = "kill a spindle"
			arr := fs.Array()
			if v := 2 + rng.Intn(arr.Spindles()-2); arr.SpindleState(arr.Twin(v)) == disk.Healthy && !arr.RepairActive() {
				arr.SetSpindleState(v, disk.Dead)
			}
		case op < 94:
			what = "replace + rebuild"
			arr := fs.Array()
			for v := 0; v < arr.Spindles(); v++ {
				if arr.SpindleState(v) == disk.Dead && !arr.RepairActive() {
					if err := fs.Manager().Rebuild(v); err != nil {
						return fmt.Errorf("step %d (%s): %w", step, what, err)
					}
					rebuilt = true
					break
				}
			}
		default:
			continue
		}
		settle()
		if err := cacheMatchesPlatters(fs); err != nil {
			return fmt.Errorf("seed %d, after step %d (%s): %w", seed, step, what, err)
		}
	}
	fs.Manager().RunUntilDone()
	settle()
	if err := cacheMatchesPlatters(fs); err != nil {
		return fmt.Errorf("seed %d, after the last rounds: %w", seed, err)
	}
	if mirrored && !rebuilt {
		return fmt.Errorf("seed %d: the walk never rebuilt a spindle", seed)
	}
	snap := fs.Metrics().Snapshot()
	for _, name := range []string{"mmfs_cache_inserts_total", "mmfs_cache_hits_total", "mmfs_cache_adoptions_total", "mmfs_cache_evictions_total"} {
		if v, _ := snap.Counter(name); v == 0 {
			return fmt.Errorf("seed %d: %s = 0: the walk never exercised the cache", seed, name)
		}
	}
	if problems := fs.Check(); len(problems) != 0 {
		return fmt.Errorf("seed %d: check: %v", seed, problems)
	}
	return nil
}

// Whatever the file system does, what the cache holds is what the
// platters hold.
func TestCachedBytesAlwaysMatchThePlatters(t *testing.T) {
	for _, mirrored := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("mirrored=%v/seed%d", mirrored, seed), func(t *testing.T) {
				if err := platterWalk(seed, mirrored, 250, intact); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// The oracle bites: a walk with one protection taken away fails it, in
// the way that protection exists to prevent. (The seed is one whose
// walk meets the hazard: a removal with the strand's blocks cached.)
func TestPlatterOracleCatchesSeededMutations(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  walkMutation
		seed int64
		want string
	}{
		{"no invalidation on removal", noRemovalHook, 1, "the strand is gone"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := platterWalk(tc.seed, false, 250, tc.mut)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mutated walk: %v; want an oracle failure saying %q", err, tc.want)
			}
		})
	}
}
