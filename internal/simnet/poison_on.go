//go:build arenapoison

package simnet

// poisonArenas makes SimNet overwrite a drained batch's arena and a TCP
// reader its payload buffer once the handler is done with them (go test
// -tags arenapoison), so a handler that kept a lent payload reads garbage.
const poisonArenas = true
