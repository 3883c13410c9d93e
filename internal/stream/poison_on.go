//go:build arenapoison

package stream

// poisonArenas makes the last Release of a lease overwrite its arena,
// and PutEncodeBuffer its bytes (go test -tags arenapoison); see Lease.
const poisonArenas = true
