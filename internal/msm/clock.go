package msm

import (
	"fmt"
	"time"
)

// virtualClock is the time base the service rounds advance: the devices
// report how long each access takes, the rounds add it up here. Virtual
// time is decoupled from the wall clock so that experiments are
// deterministic and fast. The zero value is a clock at time zero, ready
// to use.
type virtualClock struct {
	now time.Duration
}

// Now reports the current virtual time as an offset from the start of
// the simulation.
func (c *virtualClock) Now() time.Duration { return c.now }

// Advance moves the clock forward by d. It panics if d is negative:
// virtual time never runs backwards.
func (c *virtualClock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("msm: clock: Advance by negative duration %v", d))
	}
	c.now += d
}

// AdvanceTo moves the clock forward to t. Moving to the current time is
// a no-op; moving backwards panics.
func (c *virtualClock) AdvanceTo(t time.Duration) {
	if t < c.now {
		panic(fmt.Sprintf("msm: clock: AdvanceTo %v before current time %v", t, c.now))
	}
	c.now = t
}
