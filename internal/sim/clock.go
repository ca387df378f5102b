// Package sim provides the virtual time base the storage manager's
// service rounds advance: the devices report how long each access takes,
// the rounds add it up here. Simulated time is decoupled from wall-clock
// time so that experiments are deterministic and fast.
package sim

import (
	"fmt"
	"time"
)

// Clock is a monotonically advancing virtual clock. The zero value is a
// clock at time zero, ready to use.
type Clock struct {
	now time.Duration
}

// Now reports the current virtual time as an offset from the start of
// the simulation.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. It panics if d is negative:
// virtual time never runs backwards.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Advance by negative duration %v", d))
	}
	c.now += d
}

// AdvanceTo moves the clock forward to t. Moving to the current time is
// a no-op; moving backwards panics.
func (c *Clock) AdvanceTo(t time.Duration) {
	if t < c.now {
		panic(fmt.Sprintf("sim: AdvanceTo %v before current time %v", t, c.now))
	}
	c.now = t
}
