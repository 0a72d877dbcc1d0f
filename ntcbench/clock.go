package main

import "time"

// The harness's only wall-clock reads. Measuring host time is its whole
// job, and no value read here is passed into the program under test, so
// the simulator's determinism lint allows exactly these two lines.

// now returns the current wall-clock time.
func now() time.Time {
	return time.Now() //ntclint:allow wallclock benchmark timing; never passed to the program under test
}

// since returns the wall-clock time elapsed since t.
func since(t time.Time) time.Duration {
	return time.Since(t) //ntclint:allow wallclock benchmark timing; never passed to the program under test
}
