//go:build arenapoison

package stream

// poisonArenas makes the last Release of a lease overwrite its arena
// (go test -tags arenapoison); see Lease.
const poisonArenas = true
