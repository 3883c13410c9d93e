//go:build !arenapoison

package stream

// poisonArenas is off in every shipped build; see Lease.
const poisonArenas = false
