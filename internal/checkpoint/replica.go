// Replica is one node of the replicated checkpoint store: it owns a
// reliable control-plane endpoint ("<entity>/ckpt" or "portal/ckpt"),
// accepts chunked records from writers, acks every structurally valid
// record it can cover (stored, duplicate, or already holding newer),
// answers fetches, and exchanges digests for newest-seq-wins
// anti-entropy. The writer side counts distinct ackers per (query, seq)
// and fires OnQuorum exactly once when the configured quorum is
// reached — the durability point that lets upstream replay buffers
// trim.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"sync"

	"sspd/internal/metrics"
	"sspd/internal/obslog"
	"sspd/internal/simnet"
)

// Message kinds on the checkpoint control plane (all ride inside the
// reliable layer's envelopes).
const (
	// KindChunk carries one frame of an encoded record.
	KindChunk = "ckpt.chunk"
	// KindAck acknowledges a fully received, coverable record:
	// u64 seq | query.
	KindAck = "ckpt.ack"
	// KindFetch asks a replica to push its record for a query: query.
	KindFetch = "ckpt.fetch"
	// KindNone answers a fetch when the replica holds nothing: query.
	KindNone = "ckpt.none"
	// KindDigest carries (query, seq) pairs for anti-entropy:
	// u16 n | n x (u64 seq | u16 len | query).
	KindDigest = "ckpt.digest"
)

// ReplicaConfig tunes a Replica.
type ReplicaConfig struct {
	// Reliable configures the underlying control endpoint (retries,
	// backoff, give-up callback feeding the failure detector).
	Reliable simnet.ReliableConfig
	// ChunkSize bounds one frame's payload (default DefaultChunkSize).
	ChunkSize int
	// Quorum is the distinct-acker count a Replicate needs before
	// OnQuorum fires (default 1).
	Quorum int
	// OnQuorum fires once per replicated record when Quorum distinct
	// peers have acked it.
	OnQuorum func(rec Record, acks int)
	// OnRecord fires for every structurally valid record received,
	// with the store's verdict — fetch responses and anti-entropy
	// pushes land here too.
	OnRecord func(rec Record, from simnet.NodeID, result PutResult)
	// OnNone fires when a fetched peer reports no record for a query.
	OnNone func(query string, from simnet.NodeID)
	// Log receives ckpt.corrupt events (nil uses the process default).
	Log *obslog.Logger
}

// Replica is one replicated-checkpoint-store node.
type Replica struct {
	self  simnet.NodeID
	store *Store
	rel   *simnet.ReliableEndpoint
	cfg   ReplicaConfig
	log   *obslog.Logger

	mu       sync.Mutex
	asm      *Assembler
	nextXfer uint64
	pending  map[string]*repTrack

	// Corrupt counts rejected records (CRC mismatch, torn chunks);
	// StaleDrops counts stale-seq replays rejected by the store;
	// Acks counts acks sent; Pushes counts records pushed to peers.
	Corrupt    metrics.Counter
	StaleDrops metrics.Counter
	Acks       metrics.Counter
	Pushes     metrics.Counter
}

// repTrack is the writer-side ack bookkeeping for one query's current
// replication round.
type repTrack struct {
	rec   Record
	acked map[simnet.NodeID]bool
	fired bool
}

// NewReplica registers self on the transport. store may be nil (a fresh
// one is created).
func NewReplica(t simnet.Transport, self simnet.NodeID, store *Store, cfg ReplicaConfig) (*Replica, error) {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = DefaultChunkSize
	}
	if cfg.Quorum <= 0 {
		cfg.Quorum = 1
	}
	if store == nil {
		store = NewStore()
	}
	r := &Replica{
		self:    self,
		store:   store,
		cfg:     cfg,
		log:     cfg.Log,
		asm:     NewAssembler(),
		pending: make(map[string]*repTrack),
	}
	if r.log == nil {
		r.log = obslog.Default()
	}
	rel, err := simnet.NewReliable(t, self, r.handle, cfg.Reliable)
	if err != nil {
		return nil, err
	}
	r.rel = rel
	return r, nil
}

// Store exposes the replica's local store.
func (r *Replica) Store() *Store { return r.store }

// Replicate encodes rec, stores it locally, and chunk-pushes it to
// every peer, tracking acks toward the configured quorum. It returns
// the total bytes put on the wire.
func (r *Replica) Replicate(rec Record, peers []simnet.NodeID) (int, error) {
	r.store.Put(rec)
	r.mu.Lock()
	r.pending[rec.Query] = &repTrack{rec: rec, acked: make(map[simnet.NodeID]bool)}
	r.mu.Unlock()
	wire := 0
	for _, p := range peers {
		n, err := r.push(rec, p)
		if err != nil {
			return wire, err
		}
		wire += n
	}
	return wire, nil
}

// push chunk-sends one record to one peer (fetch responses and
// anti-entropy repairs share it with Replicate).
func (r *Replica) push(rec Record, to simnet.NodeID) (int, error) {
	enc := EncodeRecord(rec)
	r.mu.Lock()
	r.nextXfer++
	xfer := r.nextXfer
	r.mu.Unlock()
	wire := 0
	for _, frame := range EncodeChunks(xfer, enc, r.cfg.ChunkSize) {
		if err := r.rel.Send(to, KindChunk, frame); err != nil {
			return wire, err
		}
		wire += len(frame)
	}
	r.Pushes.Inc()
	return wire, nil
}

// Fetch asks each peer to push its record for a query (or answer
// KindNone). Responses arrive asynchronously through OnRecord/OnNone.
func (r *Replica) Fetch(query string, peers []simnet.NodeID) {
	for _, p := range peers {
		_ = r.rel.Send(p, KindFetch, []byte(query))
	}
}

// AntiEntropy sends one digest of the given queries' held sequences to
// a peer; the exchange converges both sides to the newest sequence (the
// peer pushes back anything newer and fetches anything older).
func (r *Replica) AntiEntropy(to simnet.NodeID, queries []string) {
	if len(queries) == 0 {
		return
	}
	payload := binary.LittleEndian.AppendUint16(nil, uint16(len(queries)))
	for _, q := range queries {
		payload = binary.LittleEndian.AppendUint64(payload, r.store.Seq(q))
		payload = appendStr16(payload, q)
	}
	_ = r.rel.Send(to, KindDigest, payload)
}

// Close deregisters the endpoint and stops retries.
func (r *Replica) Close() error { return r.rel.Close() }

// handle is the unwrapped-message callback from the reliable endpoint.
func (r *Replica) handle(m simnet.Message) {
	switch m.Kind {
	case KindChunk:
		r.handleChunk(m)
	case KindAck:
		r.handleAck(m)
	case KindFetch:
		query := string(m.Payload)
		if rec, ok := r.store.Get(query); ok {
			_, _ = r.push(rec, m.From)
		} else {
			_ = r.rel.Send(m.From, KindNone, []byte(query))
		}
	case KindNone:
		if r.cfg.OnNone != nil {
			r.cfg.OnNone(string(m.Payload), m.From)
		}
	case KindDigest:
		r.handleDigest(m)
	}
}

// handleChunk assembles frames and, on completion, verifies and offers
// the record to the store. Every coverable record is acked — including
// duplicates and stale replays, since the replica durably holds state
// at least as new — while corrupt records are dropped without an ack
// (the writer retries or gives up).
func (r *Replica) handleChunk(m simnet.Message) {
	r.mu.Lock()
	enc, done, err := r.asm.Add(string(m.From), m.Payload)
	r.mu.Unlock()
	if err != nil {
		r.Corrupt.Inc()
		r.log.Warn("ckpt.corrupt", string(r.self), "torn checkpoint transfer rejected",
			"from", m.From, "err", err.Error())
		return
	}
	if !done {
		return
	}
	rec, err := DecodeRecord(enc)
	if err != nil {
		r.Corrupt.Inc()
		r.log.Warn("ckpt.corrupt", string(r.self), "corrupt checkpoint record rejected",
			"from", m.From, "err", err.Error())
		return
	}
	result := r.store.Put(rec)
	if result == Stale {
		r.StaleDrops.Inc()
		r.log.Debug("ckpt.corrupt", string(r.self), "stale checkpoint replay rejected",
			"from", m.From, "query", rec.Query, "seq", rec.Seq,
			"held_seq", r.store.Seq(rec.Query), "reason", "stale-seq")
	}
	if r.cfg.OnRecord != nil {
		r.cfg.OnRecord(rec, m.From, result)
	}
	ack := binary.LittleEndian.AppendUint64(nil, rec.Seq)
	ack = append(ack, rec.Query...)
	_ = r.rel.Send(m.From, KindAck, ack)
	r.Acks.Inc()
}

// handleAck credits one peer's ack toward the current replication
// round's quorum.
func (r *Replica) handleAck(m simnet.Message) {
	if len(m.Payload) < 8 {
		return
	}
	seq := binary.LittleEndian.Uint64(m.Payload)
	query := string(m.Payload[8:])
	var fire func()
	r.mu.Lock()
	if tr := r.pending[query]; tr != nil && tr.rec.Seq == seq && !tr.acked[m.From] {
		tr.acked[m.From] = true
		if !tr.fired && len(tr.acked) >= r.cfg.Quorum {
			tr.fired = true
			rec, n := tr.rec, len(tr.acked)
			if r.cfg.OnQuorum != nil {
				fire = func() { r.cfg.OnQuorum(rec, n) }
			}
		}
	}
	r.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// handleDigest runs the receiver half of anti-entropy: push back
// anything we hold newer, fetch anything the peer holds newer.
func (r *Replica) handleDigest(m simnet.Message) {
	p := m.Payload
	if len(p) < 2 {
		return
	}
	n := int(binary.LittleEndian.Uint16(p))
	off := 2
	for i := 0; i < n; i++ {
		if off+10 > len(p) {
			return
		}
		seq := binary.LittleEndian.Uint64(p[off:])
		ql := int(binary.LittleEndian.Uint16(p[off+8:]))
		off += 10
		if off+ql > len(p) {
			return
		}
		query := string(p[off : off+ql])
		off += ql
		own := r.store.Seq(query)
		switch {
		case own > seq:
			if rec, ok := r.store.Get(query); ok {
				_, _ = r.push(rec, m.From)
			}
		case own < seq:
			_ = r.rel.Send(m.From, KindFetch, []byte(query))
		}
	}
}

// String aids debugging.
func (r *Replica) String() string {
	return fmt.Sprintf("checkpoint.Replica(%s, %d records)", r.self, r.store.Len())
}
