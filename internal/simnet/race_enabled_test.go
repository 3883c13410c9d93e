//go:build race

package simnet

// raceEnabled reports whether the race detector is instrumenting this
// build: it allocates shadow state and drops pooled items at random, so
// exact allocation guards are meaningless under -race.
const raceEnabled = true
