package continuity

// This file lifts §3.4's admission control onto the paper's concurrent
// retrieval architecture (§3.1, degree p). With strand blocks striped
// across p independently scheduled spindles, each spindle runs its own
// sub-round over the requests resident on it, so Eq. 18
//
//	n·α + n·k·β ≤ k·γ
//
// must hold per spindle with n the spindle-resident population — and
// the aggregate stream bound becomes p times the single-spindle n_max
// of Eq. 17. One k governs every spindle's sub-round (the sub-rounds
// join into one logical round), which is sound because transient
// feasibility is monotone in k: for an admitted set, γ − n·β > 0, so
// n·α ≤ k·(γ − n·β) at some k holds at every larger k. Raising k for
// the spindle that needs it therefore never breaks the others, and the
// stepwise transition's intermediate k values stay feasible everywhere.

// Striped evaluates per-spindle admission for an array of degree P.
type Striped struct {
	// A is the per-spindle admission controller: its device parameters
	// (l_max_seek, r_dt) describe one spindle, which the array's
	// logical geometry preserves.
	A Admission
	// P is the degree of concurrency (spindle count).
	P int
}

// Admit decides admission for a disk-bound candidate on an array.
// perSpindle lists the disk-bound requests currently resident on each
// spindle (cache-served followers excluded by the caller). spindle is
// the candidate's home — the spindle holding its first media block —
// or negative when the placement is unknown (records, repositioned
// plays), in which case the candidate must fit on every spindle.
//
// The returned K is the global round granularity: the maximum of the
// per-spindle Eq. 18 solutions.
func (s Striped) Admit(perSpindle [][]Request, spindle, kOld int, candidate Request) Decision {
	if spindle >= len(perSpindle) {
		return Decision{Reason: "striped admission: spindle index out of range"}
	}
	if spindle >= 0 {
		return s.A.Admit(perSpindle[spindle], kOld, candidate)
	}
	var out Decision
	for sp, set := range perSpindle {
		d := s.A.Admit(set, kOld, candidate)
		if !d.Admitted {
			return d
		}
		if sp == 0 || d.K > out.K {
			out = d
		}
	}
	return out
}
