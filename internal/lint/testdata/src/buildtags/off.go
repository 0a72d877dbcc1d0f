//go:build !go1.1

package buildtags

const Picked = "off"
