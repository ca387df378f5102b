package msm

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/fault"
	"mmfs/internal/strand"
)

// The round state the manager keeps between rounds instead of rebuilding
// it every round — the resident table with its counts and per-set slack,
// the class → spindle table, every play's wake and cache-stream handle,
// and the finish and demotion flags — held after every round and command
// to what a fresh computation says, on five rigs that between them cause
// every event that stales it.

// freshResident is the resident table as residentSets built it on every
// call before the table was kept: from the live request table, each play's
// extent through Locate.
func freshResident(m *Manager, pending bool) (sets [][]continuity.Request, n, cacheServed int) {
	sets = make([][]continuity.Request, len(m.rt.sets))
	for _, r := range m.reqs {
		if r.cacheServed && !r.done {
			cacheServed++
		}
		if r.done || r.cacheServed || (r.pendingK > 0 && !pending) {
			continue
		}
		if r.pause != nil && r.pause.destructive {
			continue
		}
		n++
		e := r.effAdm()
		sps := extentLocate(m, r)
		if sps == 0 {
			for i := range sets {
				sets[i] = append(sets[i], e)
			}
			continue
		}
		for ; sps != 0; sps &= sps - 1 {
			sp := bits.TrailingZeros64(sps)
			sets[sp] = append(sets[sp], e)
		}
	}
	return sets, n, cacheServed
}

// extentLocate is Manager.extent asking Locate for every class.
func extentLocate(m *Manager, r *request) uint64 {
	if r.kind != Play {
		return 0
	}
	var sps uint64
	for c := r.play.pm[r.play.nextFetch].classes; c != 0; c &= c - 1 {
		sp, _ := m.array.Locate(bits.TrailingZeros64(c) * m.groupSec)
		sps |= 1 << sp
	}
	return sps
}

// laneLocate is Manager.laneSpindle asking Locate for every stretch.
func laneLocate(m *Manager, r *request) (int, bool) {
	if len(m.lanes) == 0 || r.kind != Play || r.cacheServed {
		return 0, false
	}
	ps := r.play
	end := min(ps.nextFetch+ps.window(m.k), len(ps.plan.Blocks))
	sp := -1
	for j := int(ps.pm[ps.nextFetch].next); j < end; {
		p := ps.pm[j]
		if p.group < 0 {
			return 0, false
		}
		s, _ := m.array.Locate(int(p.group) * m.groupSec)
		if sp >= 0 && s != sp {
			return 0, false
		}
		sp, j = s, int(p.other)
	}
	return sp, sp >= 0
}

// roundStateFindings compares what the manager keeps with the fresh
// computation: the class table with Locate; a table not staled since it
// was built with freshResident in its view — its sets, its request and
// cache-served counts, and, when it holds a round's view, the slack a
// round would read at the current k; CacheServed with a walk of the
// requests; every live play's lane with laneLocate; and requestFindings.
func roundStateFindings(m *Manager) error {
	if m.array != nil {
		for c, sp := range m.classSpindles() {
			if want, _ := m.array.Locate(c * m.groupSec); sp != want {
				return fmt.Errorf("round state: class %d is read from spindle %d, Locate says %d", c, sp, want)
			}
		}
	}
	if t := &m.rt; t.fresh {
		sets, n, cs := freshResident(m, t.admission)
		if n != t.n || cs != t.cacheServed {
			return fmt.Errorf("round state: the table counts %d requests and %d cache-served, afresh %d and %d", t.n, t.cacheServed, n, cs)
		}
		for i := range sets {
			if fmt.Sprint(sets[i]) != fmt.Sprint(t.sets[i]) {
				return fmt.Errorf("round state: set %d holds %v, afresh %v", i, t.sets[i], sets[i])
			}
			if t.admission && t.waiting > 0 {
				continue
			}
			if got, want := m.setSlack(i), m.roundSlack(sets[i]); got != want {
				return fmt.Errorf("round state: set %d's slack at k=%d is %v, afresh %v", i, m.k, got, want)
			}
		}
	}
	_, _, cs := freshResident(m, false)
	if got := m.CacheServed(); got != cs {
		return fmt.Errorf("round state: %d cache-served, a walk counts %d", got, cs)
	}
	for _, r := range m.reqs {
		if r.done || r.kind != Play {
			continue
		}
		sp, ok := m.laneSpindle(r)
		if wsp, wok := laneLocate(m, r); ok != wok || (ok && sp != wsp) {
			return fmt.Errorf("round state: request %d rides lane (%d, %v), afresh (%d, %v)", r.id, sp, ok, wsp, wok)
		}
	}
	for _, r := range m.reqs {
		if err := requestFindings(m, r); err != nil {
			return fmt.Errorf("round state: request %d: %w", r.id, err)
		}
	}
	return nil
}

// requestFindings holds what the manager keeps of one request to a fresh
// look: a request finishDrained would end or retire has raised the finish
// flag, and one processDemotions would resolve the demotion flag; a
// play's cache-stream handle is open exactly when the cache holds an
// open stream under its id, and is that stream; and a wake later than the
// clock belongs to a started play, not load-shed, whose display buffers
// are full now and whose next release — searched afresh — is that wake.
func requestFindings(m *Manager, r *request) error {
	drained := r.kind == Play && r.play.nextFetch >= len(r.play.plan.Blocks) || r.kind == Record && r.rec.exhausted
	if (r.done || r.pause == nil && drained) && !m.finish {
		return fmt.Errorf("finished (done=%v) with the finish flag down", r.done)
	}
	if r.needsDemote && !r.done && r.pause == nil && !m.demoting {
		return fmt.Errorf("flagged for demotion with the demotion flag down")
	}
	if r.kind != Play || r.done {
		return nil
	}
	ps := r.play
	if m.cache != nil {
		if h := m.cache.Stream(uint64(r.id)); h.Open() != ps.stream.Open() || h.Open() && h != ps.stream {
			return fmt.Errorf("holds a handle open=%v, the cache files one open=%v under its id, the same: %v", ps.stream.Open(), h.Open(), h == ps.stream)
		}
	}
	if r.cacheServed && ps.stream == nil {
		return fmt.Errorf("cache-served with no cache-stream handle")
	}
	now := m.Now()
	if now >= r.wake {
		return nil
	}
	if !ps.started || ps.stride > 1 {
		return fmt.Errorf("keeps a wake of %v at %v, started=%v, stride %d", r.wake, now, ps.started, ps.stride)
	}
	rel := ps.searchReleased(now - ps.startTime)
	if ps.nextFetch-rel < ps.plan.Buffers {
		return fmt.Errorf("keeps a wake of %v at %v with %d of %d buffers full", r.wake, now, ps.nextFetch-rel, ps.plan.Buffers)
	}
	if next := ps.startTime + ps.pm[rel+1].offset; r.wake != next {
		return fmt.Errorf("keeps a wake of %v, its next release is at %v", r.wake, next)
	}
	return nil
}

// checkState fails the test on a round-state finding.
func checkState(t *testing.T, m *Manager, after string) {
	t.Helper()
	if err := roundStateFindings(m); err != nil {
		t.Fatalf("after %s (round %d, k=%d): %v", after, m.stats.Rounds, m.k, err)
	}
}

// runChecked runs rounds for d of virtual time — until the manager has
// nothing left to do, for d = 0 — checking the round state after each.
func runChecked(t *testing.T, m *Manager, d time.Duration) {
	t.Helper()
	deadline := m.Now() + d
	for d == 0 || m.Now() < deadline {
		more := m.RunRound()
		checkState(t, m, "a round")
		if !more {
			return
		}
	}
}

// playChecked admits a play of the strand and checks the state after.
func playChecked(t *testing.T, rig *testRig, s *strand.Strand, o PlanOptions) RequestID {
	t.Helper()
	id, _, err := rig.tryPlay(rig.m, s, o)
	if err != nil && !strings.Contains(err.Error(), ErrAdmissionRejected.Error()) {
		t.Fatal(err)
	}
	checkState(t, rig.m, "an admission")
	return id
}

// pauseResumeChecked pauses the request (destructively or not), runs
// rounds for d, resumes it, and checks the state after each command.
func pauseResumeChecked(t *testing.T, m *Manager, id RequestID, destructive bool, d time.Duration) {
	t.Helper()
	if err := m.Pause(id, destructive); err != nil {
		t.Fatal(err)
	}
	checkState(t, m, "a pause")
	runChecked(t, m, d)
	if _, err := m.Resume(id); err != nil && !strings.Contains(err.Error(), ErrAdmissionRejected.Error()) {
		t.Fatal(err)
	}
	checkState(t, m, "a resume")
}

// stopChecked stops the request and checks the state after.
func stopChecked(t *testing.T, m *Manager, id RequestID) {
	t.Helper()
	if err := m.Stop(id); err != nil {
		t.Fatal(err)
	}
	checkState(t, m, "a stop")
}

// fullPlay runs rounds, the state checked after each, until a live play
// waits on full display buffers past the clock (its kept wake) — the
// play a command that moves its release or its room must wake — and
// returns the one that waits longest. The test fails when a thousand
// rounds find none.
func fullPlay(t *testing.T, m *Manager) *request {
	t.Helper()
	for i := 0; i < 1000; i++ {
		var full *request
		for _, r := range m.reqs {
			if !r.done && r.pause == nil && r.kind == Play && m.Now() < r.wake && (full == nil || r.wake > full.wake) {
				full = r
			}
		}
		if full != nil {
			return full
		}
		m.RunRound()
		checkState(t, m, "a round")
	}
	t.Fatalf("at %v no play waits on full display buffers", m.Now())
	return nil
}

// TestRoundStateOracle runs the five rigs with the round state checked
// after every round and command. Full display buffers: disk-bound plays
// admitted one at a time as k steps up (a raise grows their grants), a
// grant renegotiated and a short pause, each of a play that waits on its
// buffers. One disk with an interval cache at
// stepwise k: admissions that wait out k steps, followers, pauses both
// ways, a stopped leader and its orphans' demotions. Four spindles of
// 4-cylinder stripe groups: plays that cross groups and give up their
// classes as they go. Four mirrored spindles: a die= fault moves the
// steering, a rebuild moves it again. QoS at a pinned k: sheds,
// sub-sampled admissions and promotions, with a STOP, a PAUSE and a
// RESUME among them.
func TestRoundStateOracle(t *testing.T) {
	t.Run("full buffers", func(t *testing.T) {
		rig := newRig(t, shape{})
		var strands []*strand.Strand
		for i := 0; i < 4; i++ {
			strands = append(strands, rig.write(take{units: 900, seed: int64(610 + i), cyl: 150 * i}))
		}
		playChecked(t, rig, strands[0], rig.std)
		runChecked(t, rig.m, 100*time.Millisecond)
		playChecked(t, rig, strands[1], rig.std)
		// A pause that ends before the play's wake: the resume moves its
		// release later.
		r := fullPlay(t, rig.m)
		if err := rig.m.Pause(r.id, false); err != nil {
			t.Fatal(err)
		}
		checkState(t, rig.m, "a pause")
		rig.m.RunRound()
		checkState(t, rig.m, "a round")
		if rig.m.Now() >= r.wake {
			t.Fatalf("the pause outlasted the wake")
		}
		if _, err := rig.m.Resume(r.id); err != nil {
			t.Fatal(err)
		}
		checkState(t, rig.m, "a resume")
		for _, s := range strands[2:] {
			runChecked(t, rig.m, 100*time.Millisecond)
			playChecked(t, rig, s, rig.std) // a raise of k grows the grants
		}
		r = fullPlay(t, rig.m)
		if err := rig.m.SetBuffers(r.id, r.play.plan.Buffers+2); err != nil {
			t.Fatal(err)
		}
		checkState(t, rig.m, "SetBuffers")
		runChecked(t, rig.m, 0)
	})
	t.Run("one disk", func(t *testing.T) {
		rig := newRig(t, shape{})
		s := rig.record(take{units: 450, seed: 501})
		other := rig.record(take{units: 240, seed: 502})
		rig.m = rig.manager(config{cache: 16 << 20})
		var ids []RequestID
		for i := 0; i < 4; i++ {
			ids = append(ids, playChecked(t, rig, s, rig.std))
			runChecked(t, rig.m, 300*time.Millisecond)
		}
		disk := playChecked(t, rig, other, rig.std)
		runChecked(t, rig.m, 300*time.Millisecond)
		pauseResumeChecked(t, rig.m, disk, true, 200*time.Millisecond)
		pauseResumeChecked(t, rig.m, ids[1], false, 200*time.Millisecond)
		pauseResumeChecked(t, rig.m, ids[2], true, 300*time.Millisecond)
		runChecked(t, rig.m, 500*time.Millisecond)
		stopChecked(t, rig.m, ids[0])
		playChecked(t, rig, s, rig.std)
		runChecked(t, rig.m, 0)
	})
	t.Run("four spindles", func(t *testing.T) {
		rig := newRig(t, shape{spindles: 4, stripe: 4})
		var strands []*strand.Strand
		for i := 0; i < 6; i++ {
			strands = append(strands, rig.write(take{units: 150 + 30*i, seed: int64(3900 + i), spindle: i % 4, cyl: 2}))
		}
		var ids []RequestID
		for _, s := range strands {
			ids = append(ids, playChecked(t, rig, s, rig.std))
			runChecked(t, rig.m, 150*time.Millisecond)
		}
		pauseResumeChecked(t, rig.m, ids[1], true, 200*time.Millisecond)
		stopChecked(t, rig.m, ids[2])
		runChecked(t, rig.m, 0)
	})
	t.Run("mirrored, a death and a rebuild", func(t *testing.T) {
		const p, stripe, victim = 4, 120, 1
		rig := newRig(t, shape{spindles: p, stripe: stripe, mirror: true, fault: fault.Scenario{Seed: 7, DieRound: 5}, faultOn: victim})
		opts := PlanOptions{ReadAhead: 1, Buffers: 32, Scattering: rig.scattering()}
		strands := make([]*strand.Strand, p)
		for sp := 0; sp < p; sp++ {
			strands[sp] = rig.write(take{units: 240, seed: int64(540 + sp), spindle: sp, pin: true})
		}
		for sp := 0; sp < p; sp++ {
			playChecked(t, rig, strands[sp], opts)
		}
		for i := 0; i < 12; i++ {
			rig.m.RunRound()
			checkState(t, rig.m, "a round")
		}
		if err := rig.m.Rebuild(victim); err != nil {
			t.Fatal(err)
		}
		checkState(t, rig.m, "a rebuild")
		playChecked(t, rig, strands[0], opts)
		runChecked(t, rig.m, 0)
		if rig.m.RepairActive() {
			t.Fatal("the rebuild did not finish")
		}
		playChecked(t, rig, strands[victim], opts)
		runChecked(t, rig.m, 0)
	})
	t.Run("QoS", func(t *testing.T) {
		rig := newRig(t, shape{})
		tmpl := continuity.Request{Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()}
		nmax := rig.m.adm.NMax(tmpl)
		k := cacheRigK(t, rig.m.adm, tmpl, nmax)
		var strands []*strand.Strand
		for i := 0; i < 3; i++ {
			strands = append(strands, rig.write(take{units: 600 + 150*i, seed: int64(550 + i), cyl: 100 + 300*i}))
		}
		rig.m = rig.manager(config{policy: NaiveJump, k: k, qos: 4})
		var ids []RequestID
		for i := 0; i < nmax+5; i++ {
			class := continuity.Class(i % continuity.NumClasses)
			if i >= nmax {
				class = continuity.Class((i + 2) % continuity.NumClasses)
			}
			o := PlanOptions{ReadAhead: 2, Buffers: 2 * k, Scattering: rig.scattering(), Class: class}
			if id := playChecked(t, rig, strands[i%len(strands)], o); id != 0 {
				ids = append(ids, id)
			}
			runChecked(t, rig.m, 50*time.Millisecond)
		}
		if st := rig.m.Stats(); st.LoadDemotions == 0 {
			t.Fatalf("the overload shed nothing: %+v", st)
		}
		n := len(ids)
		stopChecked(t, rig.m, ids[n-1])
		pauseResumeChecked(t, rig.m, ids[n-2], true, 100*time.Millisecond)
		pauseResumeChecked(t, rig.m, ids[n-3], false, 100*time.Millisecond)
		runChecked(t, rig.m, 0)
		if st := rig.m.Stats(); st.ShedBlocks == 0 || st.Promotions == 0 {
			t.Fatalf("no block was skipped or no stream promoted back: %+v", st)
		}
	})
}

// roundStateMutations each drop the invalidation one event makes of the
// kept round state — a stale mark, a wake cleared, a flag raised: the
// first occurrence of old after the declaration in the file becomes new.
var roundStateMutations = []struct {
	event, file, decl, old, new string
}{
	{"admit", "manager.go", "func (m *Manager) register(", "\tm.rt.invalidate()\n", ""},
	{"stop", "manager.go", "func (m *Manager) end(", "\tm.rt.invalidate()\n", ""},
	{"pause", "manager.go", "func (m *Manager) Pause(", "\tm.rt.invalidate()\n", ""},
	{"resume", "manager.go", "func (m *Manager) Resume(", "\tm.rt.invalidate()\n", ""},
	{"k step", "lane.go", "func (m *Manager) setSlack(", "t.slackK != m.k", "t.slackK == 0"},
	{"stride change", "qos.go", "func (m *Manager) setStride(", "\tm.rt.invalidate()\n", ""},
	{"steering change", "lane.go", "func (m *Manager) classSpindles(", "g != m.steerGen", "m.steerGen == 0"},
	{"extent crossing a stripe group", "lane.go", "func (ln *lane) serviceRequest(", "\t\tln.m.rt.invalidate()\n", ""},
	{"SetBuffers", "manager.go", "func (m *Manager) SetBuffers(", "\tr.wake = 0\n", ""},
	{"raiseK", "manager.go", "func (m *Manager) raiseK(", "\t\t\tr.wake = 0\n", ""},
	{"shiftClock", "manager.go", "func (r *request) shiftClock(", "\tr.wake = 0\n", ""},
	{"setStride", "qos.go", "func (m *Manager) setStride(", "\tr.wake = 0\n", ""},
	{"end", "manager.go", "func (m *Manager) end(", "\tm.finish = true\n", ""},
	{"a play's last block", "lane.go", "func (ln *lane) serviceRequest(", "len(ps.plan.Blocks) {\n\t\tln.m.finish = true\n", "len(ps.plan.Blocks) {\n"},
	{"a demotion flagged", "manager.go", "func (m *Manager) flagDemotion(", "\tm.demoting = true\n", ""},
}

// TestRoundStateOracleCatchesMutations builds the package once per
// mutation, the mutated file laid over the original (go test -overlay),
// and runs TestRoundStateOracle there: it must fail, on a round-state
// finding, every time.
func TestRoundStateOracleCatchesMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package once per mutation")
	}
	gotool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gotool); err != nil {
		t.Skipf("no go command beside the test's toolchain: %v", err)
	}
	builds := make(chan struct{}, 2) // two builds at a time
	for _, mu := range roundStateMutations {
		t.Run(mu.event, func(t *testing.T) {
			t.Parallel()
			builds <- struct{}{}
			defer func() { <-builds }()
			src, err := os.ReadFile(mu.file)
			if err != nil {
				t.Fatal(err)
			}
			body := string(src)
			at := strings.Index(body, mu.decl)
			if at < 0 {
				t.Fatalf("%s declares no %q", mu.file, mu.decl)
			}
			end := at + len(mu.decl) + strings.Index(body[at+len(mu.decl):], "\nfunc ")
			i := strings.Index(body[at:end], mu.old)
			if i < 0 {
				t.Fatalf("%s: no %q in %s…", mu.file, mu.old, mu.decl)
			}
			mutated := body[:at+i] + mu.new + body[at+i+len(mu.old):]
			dir := t.TempDir()
			path := filepath.Join(dir, mu.file)
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			orig, err := filepath.Abs(mu.file)
			if err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {orig: path}})
			if err != nil {
				t.Fatal(err)
			}
			ov := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(ov, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command(gotool, "test", "-count=1", "-overlay", ov, "-run", "^TestRoundStateOracle$", ".").CombinedOutput()
			if err == nil {
				t.Fatalf("the oracle passed with the %s invalidation dropped", mu.event)
			}
			if !strings.Contains(string(out), "round state:") {
				t.Fatalf("the mutated package failed, but not on a round-state finding:\n%s", out)
			}
		})
	}
}
