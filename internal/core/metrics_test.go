package core

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// mirrors lists the registry counters that publish a Stats field of the
// storage manager or of the interval cache, each with the field it
// publishes.
var mirrors = []struct {
	name  string
	field func(msm.Stats, cache.Stats) uint64
}{
	{"mmfs_rounds_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.Rounds }},
	{"mmfs_blocks_fetched_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.BlocksFetched }},
	{"mmfs_blocks_written_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.BlocksWritten }},
	{"mmfs_transition_steps_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.TransitionSteps }},
	{"mmfs_round_cache_hits_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.CacheHits }},
	{"mmfs_demotions_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.Demotions }},
	{"mmfs_violations_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.Violations }},
	{"mmfs_retries_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.Retries }},
	{"mmfs_degraded_blocks_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.DegradedBlocks }},
	{"mmfs_fault_stops_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.FaultStops }},
	{"mmfs_qos_shed_blocks_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.ShedBlocks }},
	{"mmfs_rebuild_blocks_total", func(s msm.Stats, _ cache.Stats) uint64 { return s.RebuildBlocks }},
	{"mmfs_cache_hits_total", func(_ msm.Stats, c cache.Stats) uint64 { return c.Hits }},
	{"mmfs_cache_misses_total", func(_ msm.Stats, c cache.Stats) uint64 { return c.Misses }},
	{"mmfs_cache_waits_total", func(_ msm.Stats, c cache.Stats) uint64 { return c.Waits }},
	{"mmfs_cache_inserts_total", func(_ msm.Stats, c cache.Stats) uint64 { return c.Inserts }},
	{"mmfs_cache_evictions_total", func(_ msm.Stats, c cache.Stats) uint64 { return c.Evictions }},
	{"mmfs_cache_adoptions_total", func(_ msm.Stats, c cache.Stats) uint64 { return c.Adoptions }},
}

// statsMirror holds a file system's registry to the Stats its storage
// manager and interval cache keep: every counter in mirrors reads its
// field's value plus the counter's reading when the current manager took
// over (zero at Format; the running total after NewManager, whose manager
// and reset cache count from zero). moved records the counters a check
// saw above zero.
type statsMirror struct {
	t     *testing.T
	fs    *FS
	base  []uint64
	moved []bool
}

func newStatsMirror(t *testing.T, fs *FS, moved []bool) *statsMirror {
	sm := &statsMirror{t: t, fs: fs, base: make([]uint64, len(mirrors)), moved: moved}
	sm.check("at Format")
	return sm
}

// read returns every mirrored counter's reading and its field's value.
func (sm *statsMirror) read() (got, field []uint64) {
	mgr := sm.fs.Manager()
	var cs cache.Stats
	if c := mgr.Cache(); c != nil {
		cs = c.Stats()
	}
	snap := sm.fs.Metrics().Snapshot()
	for _, m := range mirrors {
		v, _ := snap.Counter(m.name)
		got = append(got, v)
		field = append(field, m.field(mgr.Stats(), cs))
	}
	return got, field
}

func (sm *statsMirror) check(when string) {
	sm.t.Helper()
	got, field := sm.read()
	for i, m := range mirrors {
		if want := sm.base[i] + field[i]; got[i] != want {
			sm.t.Fatalf("%s: %s = %d, Stats says %d", when, m.name, got[i], want)
		}
		if got[i] > 0 {
			sm.moved[i] = true
		}
	}
}

// newManager runs FS.NewManager — a new storage manager on the registry,
// and Cache.Reset — and requires the registry to keep every count the
// old pair published, then anchors the new pair's counts on it.
func (sm *statsMirror) newManager() {
	sm.t.Helper()
	sm.check("before NewManager")
	before, _ := sm.read()
	sm.fs.NewManager()
	got, field := sm.read()
	for i, m := range mirrors {
		if got[i] != before[i] || field[i] != 0 {
			sm.t.Fatalf("NewManager: %s went from %d to %d, its field restarted at %d", m.name, before[i], got[i], field[i])
		}
	}
	sm.base = got
}

// run services rounds, checking after every return, until RunRound
// reports nothing left or max rounds ran.
func (sm *statsMirror) run(max int) {
	sm.t.Helper()
	for i := 0; i < max; i++ {
		more := sm.fs.Manager().RunRound()
		sm.check("after a round")
		if !more {
			return
		}
	}
}

// Every registry counter that mirrors a storage manager or interval
// cache Stats field reads that field — counted from when the manager
// took over — after every RunRound return and after every admission,
// STOP and PAUSE, whatever moved it: cache traffic with the leader
// stopped under its followers, a round that only steps k, a demotion,
// faults up to an escalation stop, load shedding, a rebuild, and the
// cache's Reset under a new manager.
func TestRegistryCountersMirrorStats(t *testing.T) {
	moved := make([]bool, len(mirrors))
	t.Run("cache", func(t *testing.T) {
		fs, err := Format(Options{CacheMB: 1})
		if err != nil {
			t.Fatal(err)
		}
		sm := newStatsMirror(t, fs, moved)
		r := recordClip(t, fs, "venkat", 8, 7700)
		sm.check("after a record")
		var plays []PlayHandle
		for i := 0; i < 3; i++ {
			plays = append(plays, playVideo(t, fs, r))
			sm.check("after an admission")
			sm.run(2)
		}
		if err := fs.PausePlay(plays[2], false); err != nil {
			t.Fatal(err)
		}
		sm.check("after a PAUSE")
		sm.run(1)
		if err := fs.ResumePlay(plays[2]); err != nil {
			t.Fatal(err)
		}
		sm.check("after a resume")
		if err := fs.StopPlay(plays[0]); err != nil {
			t.Fatal(err)
		}
		sm.check("after the leader's STOP")
		sm.run(1 << 20)
		if st := fs.Manager().Stats(); st.Demotions == 0 {
			t.Fatalf("no follower demoted: %+v", st)
		}
		sm.newManager()
		playVideo(t, fs, r)
		sm.check("after an admission on the new manager")
		sm.run(1 << 20)
	})
	t.Run("transition only", func(t *testing.T) {
		fs, err := Format(Options{})
		if err != nil {
			t.Fatal(err)
		}
		sm := newStatsMirror(t, fs, moved)
		var ropes []*rope.Rope
		for seed := int64(1); seed <= 4; seed++ {
			ropes = append(ropes, recordClip(t, fs, "venkat", 2, seed))
		}
		// Admitted back to back, the first two join at the running k and
		// the last two need a larger one, so they wait to join. With the
		// first two paused, a round serves nobody and only steps k. The
		// last is stopped before it joins; the third still waits.
		var plays []PlayHandle
		for _, r := range ropes {
			plays = append(plays, playVideo(t, fs, r))
			sm.check("after an admission")
		}
		for _, h := range plays[:2] {
			if err := fs.PausePlay(h, false); err != nil {
				t.Fatal(err)
			}
			sm.check("after a PAUSE")
		}
		if err := fs.StopPlay(plays[3]); err != nil {
			t.Fatal(err)
		}
		sm.check("after a STOP")
		mgr := fs.Manager()
		before := mgr.Stats()
		sm.run(1)
		if st := mgr.Stats(); st.Rounds != before.Rounds || st.TransitionSteps == before.TransitionSteps {
			t.Fatalf("wanted a round that only steps k: rounds %d → %d, steps %d → %d",
				before.Rounds, st.Rounds, before.TransitionSteps, st.TransitionSteps)
		}
		for _, h := range plays[:2] {
			if err := fs.ResumePlay(h); err != nil {
				t.Fatal(err)
			}
			sm.check("after a resume")
		}
		sm.run(1 << 20)
	})
	t.Run("faults", func(t *testing.T) {
		sc, err := fault.ParseScenario("seed=3,readerr=1")
		if err != nil {
			t.Fatal(err)
		}
		fs, err := Format(Options{Fault: sc})
		if err != nil {
			t.Fatal(err)
		}
		sm := newStatsMirror(t, fs, moved)
		playVideo(t, fs, recordClip(t, fs, "venkat", 3, 5))
		sm.check("after an admission")
		sm.run(1 << 20)
		if st := fs.Manager().Stats(); st.Retries == 0 || st.DegradedBlocks == 0 || st.FaultStops == 0 {
			t.Fatalf("every read faulted, yet %+v", st)
		}
	})
	t.Run("load shedding", func(t *testing.T) {
		fs, err := Format(Options{QoSMaxStride: 4})
		if err != nil {
			t.Fatal(err)
		}
		sm := newStatsMirror(t, fs, moved)
		var ropes []*rope.Rope
		for seed := int64(10); seed < 16; seed++ {
			ropes = append(ropes, recordClip(t, fs, "venkat", 3, seed))
		}
		// Best-effort plays fill the disk; each premium one sheds two of
		// them at its admission, a violation each.
		for i, class := range []continuity.Class{6: continuity.Premium, 7: continuity.Premium} {
			if _, err := fs.Play("venkat", ropes[i%len(ropes)].ID, rope.VideoOnly, 0, 0, msm.PlanOptions{ReadAhead: 2, Class: class}); err != nil {
				t.Fatalf("play %d (%v): %v", i, class, err)
			}
			sm.check("after an admission")
		}
		if st := fs.Manager().Stats(); st.LoadDemotions == 0 {
			t.Fatalf("no admission shed a stream: %+v", st)
		}
		sm.run(1 << 20)
		if st := fs.Manager().Stats(); st.ShedBlocks == 0 {
			t.Fatalf("no shed block: %+v", st)
		}
	})
	t.Run("rebuild", func(t *testing.T) {
		fs, err := Format(Options{Disks: 4, Mirror: true, RebuildRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		sm := newStatsMirror(t, fs, moved)
		recordClip(t, fs, "venkat", 4, 710)
		arr := fs.Array()
		arr.SetSpindleState(2, disk.Dead)
		arr.RefreshSteering()
		if err := fs.Manager().Rebuild(2); err != nil {
			t.Fatal(err)
		}
		sm.run(1 << 20)
		if arr.RepairActive() || fs.Manager().Stats().RebuildBlocks == 0 {
			t.Fatalf("the rebuild did not run to its end: %+v", fs.Manager().Stats())
		}
	})
	for i, m := range mirrors {
		if !moved[i] {
			t.Errorf("no scenario moved %s", m.name)
		}
	}
}

// DESIGN §9 lists every metric series a file system registers — with a
// mirrored array, an interval cache, QoS and a fault scenario, so that
// every subsystem registers its own.
func TestDesignListsEveryMetric(t *testing.T) {
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(design), "\n## 9. ")
	sec, _, _ = strings.Cut(sec, "\n## ")
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile("`(mmfs_[a-z_]*(?:\\{[a-z_,]+\\}[a-z_]*)*)").FindAllStringSubmatch(sec, -1) {
		for _, name := range expandBraces(m[1]) {
			listed[name] = true
		}
	}
	sc, err := fault.ParseScenario("seed=1,readerr=0.01")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Format(Options{Disks: 4, Mirror: true, CacheMB: 1, QoSMaxStride: 4, Fault: sc})
	if err != nil {
		t.Fatal(err)
	}
	snap := fs.Metrics().Snapshot()
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snap.Gauges {
		names = append(names, g.Name)
	}
	for _, h := range snap.Histograms {
		names = append(names, h.Name)
	}
	for _, name := range names {
		base, _, _ := strings.Cut(name, "{")
		if !listed[base] {
			t.Errorf("DESIGN §9 does not list %s", base)
			listed[base] = true // once per base name
		}
	}
}

// expandBraces expands a series pattern's {a,b,…} groups:
// mmfs_x_{a,b}_total is mmfs_x_a_total and mmfs_x_b_total.
func expandBraces(s string) []string {
	pre, rest, ok := strings.Cut(s, "{")
	if !ok {
		return []string{s}
	}
	alts, post, _ := strings.Cut(rest, "}")
	var out []string
	for _, a := range strings.Split(alts, ",") {
		out = append(out, expandBraces(pre+a+post)...)
	}
	return out
}
