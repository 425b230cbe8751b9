//go:build race

package aifm

// raceEnabled is true in a -race build: Access then skips its lock-free
// read, whose copy the detector cannot see (racyCopy), so a program's own
// race on an object's bytes is reported.
const raceEnabled = true
