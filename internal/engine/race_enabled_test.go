//go:build race

package engine

// raceEnabled reports whether the race detector is instrumenting this
// build: it drops pooled items at random, so exact allocation guards
// over pooled storage (stream.Lease) are meaningless under -race.
const raceEnabled = true
