package msm

import (
	"errors"
	"fmt"
	"time"

	"mmfs/internal/disk"
)

// This file is the manager half of surviving a whole-spindle loss: it
// ticks the fault layer's round clocks (so scripted die=<round>
// scenarios fire on round boundaries), renegotiates k when the mirror
// layer re-steers a dead spindle's streams onto the surviving twin,
// and drives the disk layer's rebuild cursor in the slack
// each service round leaves over — Eq. 18 reserves k·γ − n·α − n·k·β
// of every round for worst-case positioning that rarely happens, and
// the repair engine spends what the retries did not.

// DefaultRebuildRate caps the repair chunks (one spindle cylinder
// each) copied per round when no caller overrides SetRebuildRate. The
// slack budget is the real limiter in loaded rounds; the rate cap
// bounds repair-only rounds so the virtual clock advances in humane
// steps.
const DefaultRebuildRate = 8

// repairFailLimit aborts a repair after this many consecutive chunk
// errors (the copy source failing too means the pair is beyond this
// engine's help).
const repairFailLimit = 8

// maxResteerK caps the k a steering change may request; a surviving
// twin whose absorbed population is infeasible even at this k keeps
// the old k and honestly shows violations instead.
const maxResteerK = 64

// repairCtl is the manager-side rebuild engine state.
type repairCtl struct {
	// rate caps chunks copied per round (SetRebuildRate).
	rate int
	// buf is the chunk copy buffer (one spindle cylinder), allocated
	// when a repair starts so steady rounds stay allocation-free.
	buf []byte
	// fails counts consecutive chunk errors toward repairFailLimit.
	fails int
}

// roundAdvancer is the fault layer's virtual round clock (fault.Disk
// implements it); the manager ticks every one once per service round.
type roundAdvancer interface{ AdvanceRound() }

// probeAdvancers collects the fault layers wrapping the manager's
// device(s). Called at construction and again after a spindle
// replacement (the factory-fresh device has no fault layer; the dead
// one's clock no longer matters).
func (m *Manager) probeAdvancers() {
	m.advancers = m.advancers[:0]
	if m.array != nil {
		for i := 0; i < m.array.Spindles(); i++ {
			if ra, ok := m.array.Spindle(i).(roundAdvancer); ok {
				m.advancers = append(m.advancers, ra)
			}
		}
		return
	}
	if ra, ok := m.d.(roundAdvancer); ok {
		m.advancers = append(m.advancers, ra)
	}
}

// tickFaultRounds advances every fault layer's round counter; runs at
// the top of every round so die=<round> kills land on round
// boundaries, deterministically.
//
// rt:hotpath
func (m *Manager) tickFaultRounds() {
	for _, ra := range m.advancers {
		ra.AdvanceRound()
	}
}

// SetRebuildRate caps the repair chunks copied per round (minimum 1).
func (m *Manager) SetRebuildRate(n int) {
	if n < 1 {
		n = 1
	}
	m.rb.rate = n
}

// RebuildRate reports the per-round repair chunk cap.
func (m *Manager) RebuildRate() int { return m.rb.rate }

// RepairActive reports whether a rebuild is running.
func (m *Manager) RepairActive() bool {
	return m.array != nil && m.array.RepairActive()
}

// RepairProgress reports the running repair's chunk cursor (0, 0 when
// none is active).
func (m *Manager) RepairProgress() (done, total int) {
	if m.array == nil {
		return 0, 0
	}
	return m.array.RepairProgress()
}

// Rebuild brings failed spindle target back online: a factory-fresh
// disk of the twin's geometry replaces it (the operator declaring the
// drive failed — Dead or merely Suspect, since a Suspect drive the
// steering has already routed around may never collect enough strikes
// to die), then the online rebuild starts copying the twin's cylinders
// in the rounds' leftover slack. The daemon's REBUILD op maps here.
func (m *Manager) Rebuild(target int) error {
	if m.array == nil || !m.array.Mirrored() {
		return errors.New("msm: rebuild requires a mirrored array")
	}
	if target < 0 || target >= m.array.Spindles() {
		return fmt.Errorf("msm: rebuild spindle %d out of range [0,%d)", target, m.array.Spindles())
	}
	switch m.array.SpindleState(target) {
	case disk.Healthy:
		return fmt.Errorf("msm: spindle %d is healthy; nothing to rebuild", target)
	case disk.Rebuilding:
		return fmt.Errorf("msm: spindle %d is already rebuilding", target)
	}
	fresh, err := disk.New(m.array.Spindle(m.array.Twin(target)).Geometry())
	if err != nil {
		return err
	}
	if err := m.array.ReplaceSpindle(target, fresh); err != nil {
		return err
	}
	return m.StartRebuild(target)
}

// StartRebuild starts the online rebuild of spindle target (already
// replaced with a working device) from its mirror twin.
func (m *Manager) StartRebuild(target int) error {
	if m.array == nil || !m.array.Mirrored() {
		return errors.New("msm: rebuild requires a mirrored array")
	}
	if err := m.array.StartRebuild(target); err != nil {
		return err
	}
	m.rb.fails = 0
	m.ensureRepairBuf()
	m.probeAdvancers()
	// The target may have been only Suspect a moment ago, with the frozen
	// steer table still leaving it a share of reads: re-steer now (no
	// round is running here), or an untimed read before the next round
	// finds the empty replacement.
	m.resteer()
	return nil
}

// ensureRepairBuf sizes the chunk buffer to one spindle cylinder.
func (m *Manager) ensureRepairBuf() {
	need := m.array.RepairBufferSectors() * m.array.Spindle(0).Geometry().SectorSize
	if cap(m.rb.buf) < need {
		m.rb.buf = make([]byte, need)
	}
	m.rb.buf = m.rb.buf[:need]
}

// resteer refreshes the array's steer table at the top of a round and,
// when a health change moved streams, renegotiates k: a dead spindle's
// streams now share the surviving twin's sub-round, so that spindle's
// population may need more blocks per round than the current k
// provides (the same reason fresh admissions can raise k). The need is
// Eq. 18's solution (KTransient) over each resident set, scheduled as an
// admission's is (raiseK). A single device has nothing to steer.
//
// rt:hotpath
func (m *Manager) resteer() {
	if m.array == nil || !m.array.RefreshSteering() {
		return
	}
	sets, _ := m.residentSets(true)
	need := m.k
	for _, set := range sets {
		// A set infeasible at any k up to the cap — the absorbed
		// population exceeds the surviving spindle's n_max — keeps the
		// old k and lets the violations show; admission already refuses
		// new load against the shrunken capacity.
		if k, ok := m.adm.KTransient(set); ok && k <= maxResteerK && k > need {
			need = k
		}
	}
	m.raiseK(need)
}

// repairRound runs the slack-charged repair step after a striped
// round's stream service; reports whether the round did any work.
//
// rt:hotpath
func (m *Manager) repairRound(streamWorked bool) bool {
	if m.array == nil || !m.array.RepairActive() {
		return streamWorked
	}
	spent, copied := m.repairStep(m.repairBudget())
	if copied > 0 && !streamWorked {
		// The copies were the round's only transfers; with no stream
		// round to hide inside, they consume real time.
		m.clock.Advance(spent)
	}
	return streamWorked || copied > 0
}

// repairBudget is the virtual time this round's repair step may
// spend: the leftover Eq. 18 retry slack of the lane the copies load.
// A rebuild reads only the target's twin, so that lane's leftover
// governs; if it carried premium streams this round it yields half —
// repair is background work and the strictest class keeps its full
// margin.
//
// rt:hotpath
func (m *Manager) repairBudget() time.Duration {
	ln := m.lanes[m.array.Twin(m.array.RebuildTarget())]
	b := ln.retrySlack
	if ln.premium {
		b /= 2
	}
	return b
}

// repairIdleBudget is the budget of a repair-only round: effectively
// unbounded, the rate cap is the limiter.
const repairIdleBudget = time.Duration(1) << 62

// repairStep copies repair chunks while their estimated service time
// fits the budget, up to the per-round rate cap. Returns the virtual
// time spent and the chunks copied.
//
// rt:hotpath
func (m *Manager) repairStep(budget time.Duration) (spent time.Duration, copied int) {
	a := m.array
	for copied < m.rb.rate {
		est, ok := a.PeekRepairChunk()
		if !ok {
			break // repair finished (or nothing left to copy)
		}
		if est > budget-spent {
			break // the next chunk does not fit this round's slack
		}
		t, done, err := a.RepairChunk(m.rb.buf)
		spent += t
		if err != nil {
			m.rb.fails++
			if m.rb.fails >= repairFailLimit {
				// The copy source is failing too: stop spending slack
				// on a pair this engine cannot save. The rebuild target
				// drops back to Dead.
				a.AbortRepair()
				m.rb.fails = 0
			}
			break
		}
		m.rb.fails = 0
		copied++
		m.stats.RebuildBlocks++
		if done {
			break
		}
	}
	return spent, copied
}

// runRepairOnlyRound keeps a rebuild progressing when no
// active request remains: the spindles are otherwise idle, so the
// round copies up to the rate cap and the clock advances by exactly
// the time spent.
func (m *Manager) runRepairOnlyRound() bool {
	if m.array == nil || !m.array.RepairActive() {
		return false
	}
	m.stats.Rounds++
	m.openRound(m.clock.Now(), m.k, 0, 0, 0)
	spent, copied := m.repairStep(repairIdleBudget)
	m.clock.Advance(spent)
	// spent > 0 with copied == 0 is the error path: keep rounds coming
	// until the fail limit aborts the repair.
	return copied > 0 || spent > 0
}
