// Package sim provides the simulation substrate shared by every model in
// this repository: a virtual clock measured in integer nanoseconds, a
// log-bucketed latency histogram, and a deterministic random number
// generator with the samplers (Zipf, exponential, normal) the workload
// generators and the reliability model need.
//
// Nothing in this package reads wall-clock time; simulations are fully
// deterministic given a seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of
// the simulation. The zero value is the simulation epoch.
type Time int64

// Duration is a span of simulated time in nanoseconds. It mirrors
// time.Duration so the familiar unit constants read naturally.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// String formats the time using time.Duration notation (e.g. "1.5ms").
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds returns the duration as a floating-point number of
// microseconds, the unit most Flash latency figures are quoted in.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration using time.Duration notation.
func (d Duration) String() string { return time.Duration(d).String() }

// Scale returns d multiplied by x, rounding to the nearest nanosecond.
func (d Duration) Scale(x float64) Duration {
	return Duration(float64(d)*x + 0.5)
}

// Clock tracks current simulated time. The zero value starts at the
// epoch and is ready to use.
type Clock struct {
	now Time
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. It panics if d is negative,
// because simulated time never runs backwards.
func (c *Clock) Advance(d Duration) Time {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %v", d))
	}
	c.now = c.now.Add(d)
	return c.now
}

// AdvanceTo moves the clock forward to t if t is later than the current
// time; earlier times are ignored so callers can merge independent
// completion times without ordering them first.
func (c *Clock) AdvanceTo(t Time) Time {
	if t.After(c.now) {
		c.now = t
	}
	return c.now
}
