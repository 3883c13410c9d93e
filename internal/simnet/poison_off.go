//go:build !arenapoison

package simnet

// poisonArenas is off in every shipped build; see keptPayloadBytes.
const poisonArenas = false
