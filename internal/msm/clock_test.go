package msm

import (
	"testing"
	"time"
)

func TestClockAdvance(t *testing.T) {
	var c virtualClock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v", c.Now())
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(0)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("clock at %v, want 5ms", c.Now())
	}
	c.AdvanceTo(7 * time.Millisecond)
	if c.Now() != 7*time.Millisecond {
		t.Fatalf("clock at %v, want 7ms", c.Now())
	}
	c.AdvanceTo(7 * time.Millisecond) // same instant is a no-op
}

func TestClockPanicsOnBackwardsTime(t *testing.T) {
	var c virtualClock
	c.Advance(time.Second)
	mustPanic(t, func() { c.Advance(-time.Nanosecond) })
	mustPanic(t, func() { c.AdvanceTo(999 * time.Millisecond) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
