// Package gc implements interests-based garbage collection of media
// strands, after the Etherphone mechanism the paper adopts (§4): "A
// media strand, no part of which is referred to by any rope, can be
// deleted to reclaim its storage space. A garbage collection algorithm
// such as the one presented by Terry and Swinehart …, which uses a
// reference count mechanism called interests, can be used for this
// purpose."
//
// Each rope holds one interest per strand it references (counted once
// per referencing rope, however many intervals point into the strand).
// When a strand's interest count drops to zero it is reclaimable.
package gc

import (
	"fmt"

	"mmfs/internal/strand"
)

// Interests tracks which ropes are interested in which strands.
type Interests struct {
	// byStrand maps strand → set of interested holders.
	byStrand map[strand.ID]map[uint64]struct{}
}

// New creates an empty interest table.
func New() *Interests {
	return &Interests{byStrand: make(map[strand.ID]map[uint64]struct{})}
}

// Register records holder's interest in the strand. Registering twice
// is idempotent (interests are per holder, not per reference).
func (in *Interests) Register(holder uint64, s strand.ID) {
	if s == strand.Nil {
		return
	}
	set := in.byStrand[s]
	if set == nil {
		set = make(map[uint64]struct{})
		in.byStrand[s] = set
	}
	set[holder] = struct{}{}
}

// Release drops holder's interest in the strand and reports whether
// the strand is now unreferenced.
func (in *Interests) Release(holder uint64, s strand.ID) bool {
	if s == strand.Nil {
		return false
	}
	set := in.byStrand[s]
	if set == nil {
		return false
	}
	delete(set, holder)
	if len(set) == 0 {
		delete(in.byStrand, s)
		return true
	}
	return false
}

// Count reports how many holders are interested in the strand.
func (in *Interests) Count(s strand.ID) int { return len(in.byStrand[s]) }

// Collector sweeps a strand store, reclaiming every registered strand
// no interest refers to.
type Collector struct {
	store     *strand.Store
	interests *Interests
	// Reclaimed counts strands removed over the collector's life.
	Reclaimed uint64
}

// NewCollector ties an interest table to a strand store.
func NewCollector(st *strand.Store, in *Interests) *Collector {
	return &Collector{store: st, interests: in}
}

// Collect removes every strand in the store with zero interests,
// returning the reclaimed strand IDs in ascending order.
func (c *Collector) Collect() ([]strand.ID, error) {
	victims := c.store.IDsWhere(func(id strand.ID) bool { return c.interests.Count(id) == 0 })
	for _, id := range victims {
		if err := c.store.Remove(id); err != nil {
			return nil, fmt.Errorf("gc: %w", err)
		}
		c.Reclaimed++
	}
	return victims, nil
}

// Audit verifies the interest table against a ground-truth reference
// map (holder → strands it references), returning an error describing
// the first divergence. Property tests drive it.
func (in *Interests) Audit(truth map[uint64][]strand.ID) error {
	want := make(map[strand.ID]map[uint64]struct{})
	for h, strands := range truth {
		for _, s := range strands {
			if s == strand.Nil {
				continue
			}
			if want[s] == nil {
				want[s] = make(map[uint64]struct{})
			}
			want[s][h] = struct{}{}
		}
	}
	for s, set := range in.byStrand {
		wset := want[s]
		if len(set) != len(wset) {
			return fmt.Errorf("gc: strand %d has %d interests, truth says %d", s, len(set), len(wset))
		}
		for h := range set {
			if _, ok := wset[h]; !ok {
				return fmt.Errorf("gc: strand %d wrongly claims interest from holder %d", s, h)
			}
		}
	}
	for s, wset := range want {
		if len(wset) > 0 && len(in.byStrand[s]) == 0 {
			return fmt.Errorf("gc: strand %d missing %d interests", s, len(wset))
		}
	}
	return nil
}
