package rng

// CheckGeometricExact is a hook for the external rng_test package, which
// checks the workload profiles' DepGeomP values (package rng itself
// cannot import workload: workload imports rng).
var CheckGeometricExact = checkGeometricExact
