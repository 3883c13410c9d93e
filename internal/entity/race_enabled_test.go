//go:build race

package entity

// raceEnabled reports whether the race detector is instrumenting this
// build: it allocates shadow state and drops pooled items at random, so
// exact allocation guards over pooled storage are meaningless under -race.
const raceEnabled = true
