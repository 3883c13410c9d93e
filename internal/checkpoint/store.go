// Store is the newest-seq-wins in-memory checkpoint store one Replica
// owns: at most one Record per query, replaced only by a strictly newer
// sequence. The monotonic per-query Seq (assigned portal-side, so it
// survives the query moving between hosts) makes convergence trivial —
// any gossip order reaches the same fixed point.
package checkpoint

import "sync"

// PutResult classifies a Store.Put.
type PutResult int

const (
	// Stored: the record was new or strictly newer and replaced the
	// held one.
	Stored PutResult = iota
	// Duplicate: same sequence as the held record; ignored (idempotent
	// redelivery).
	Duplicate
	// Stale: strictly older than the held record; rejected.
	Stale
)

func (r PutResult) String() string {
	switch r {
	case Stored:
		return "stored"
	case Duplicate:
		return "duplicate"
	default:
		return "stale"
	}
}

// Store holds the newest known Record per query. Safe for concurrent
// use.
type Store struct {
	mu   sync.Mutex
	recs map[string]Record
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{recs: make(map[string]Record)}
}

// Put offers a record; newest sequence wins.
func (s *Store) Put(r Record) PutResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.recs[r.Query]
	switch {
	case !ok || r.Seq > cur.Seq:
		s.recs[r.Query] = r
		return Stored
	case r.Seq == cur.Seq:
		return Duplicate
	default:
		return Stale
	}
}

// Get returns the held record for a query.
func (s *Store) Get(query string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[query]
	return r, ok
}

// Seq returns the held sequence for a query (0 when absent).
func (s *Store) Seq(query string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs[query].Seq
}

// Len returns the number of held records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}
