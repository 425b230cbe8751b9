//go:build !race

package aifm

// raceEnabled is false outside a -race build, and Access's check of it
// folds away.
const raceEnabled = false
