//go:build race

package experiments

// raceEnabled reports whether this test binary was built with -race; the
// multi-sweep determinism tests skip themselves under the detector.
const raceEnabled = true
