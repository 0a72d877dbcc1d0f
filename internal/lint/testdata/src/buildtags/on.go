//go:build go1.1

// Package buildtags declares one name in two files with opposite build
// constraints: a loader that ignores constraints sees it twice.
package buildtags

const Picked = "on"
