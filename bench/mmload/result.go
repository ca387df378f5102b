package main

import (
	"fmt"
	"strings"

	"mmfs/internal/obs"
)

// measured is what one pass of a workload produced: every metric it
// could compute (the emitter picks the ones BENCHMARK.json lists for
// the mode), the timing distributions behind the medians, the model
// counters, and the failure tally.
type measured struct {
	Metrics map[string]float64 `json:"metrics"`
	Dists   map[string]dist    `json:"timings"`
	Counts  map[string]int     `json:"counts"`
	// Attempted and Failed count operations; an admission refusal is
	// an outcome, not a failure.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Truncated reports the deadline cut the script short (slower
	// machine or commit than the sizing assumed); medians stay
	// comparable, the model counters do not repeat exactly.
	Truncated bool      `json:"truncated"`
	WallS     float64   `json:"wall_s"`
	SetupS    []float64 `json:"setup_s"`
}

func newMeasured() *measured {
	return &measured{Metrics: map[string]float64{}, Dists: map[string]dist{}, Counts: map[string]int{}}
}

func (m *measured) set(name string, v float64) { m.Metrics[name] = v }

// dist records a timing distribution for the text report and returns
// it.
func (m *measured) dist(name string, samples []float64) dist {
	d := summarise(samples)
	m.Dists[name] = d
	return d
}

// fail counts one failed operation or check and keeps the first few
// descriptions.
func (m *measured) fail(format string, a ...any) {
	m.Failed++
	if len(m.Problems) < 8 {
		m.Problems = append(m.Problems, fmt.Sprintf(format, a...))
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// ratio is a/b, 0 when there is no base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterSum adds up a counter family in a snapshot: the bare name
// plus every labelled series of it.
func counterSum(s obs.Snapshot, name string) (t float64) {
	for _, c := range s.Counters {
		if c.Name == name || strings.HasPrefix(c.Name, name+"{") {
			t += float64(c.Value)
		}
	}
	return t
}
