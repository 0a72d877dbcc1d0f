// Package wcflag exercises the wallclock analyzer: clock reads in a
// package outside the allowlist.
package wcflag

import (
	"time"

	clk "time"
)

func reads() time.Duration {
	start := time.Now()      // want `wall-clock read time\.Now outside the observability allowlist`
	_ = clk.Now()            // want `wall-clock read time\.Now outside the observability allowlist`
	<-time.Tick(1)           // want `wall-clock read time\.Tick outside the observability allowlist`
	return time.Since(start) // want `wall-clock read time\.Since outside the observability allowlist`
}

func annotated() time.Time {
	return time.Now() //ntclint:allow wallclock fixture: value is discarded by the caller
}

func annotatedAbove() time.Time {
	//ntclint:allow wallclock fixture: value is discarded by the caller
	return time.Now()
}

//ntclint:allow wallclock // want `ntclint:allow wallclock needs a reason`
func missingReason() {}

// durationsAreFine shows that time types remain unrestricted: only
// reading the host clock is gated.
func durationsAreFine(d time.Duration) time.Duration { return d * 2 }
