package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sspd/internal/metrics"
)

// Reliable-delivery message kinds. Control-plane messages ride inside
// KindReliable envelopes; every received envelope is acknowledged with
// KindReliableAck, duplicates included (the ack may have been the thing
// that was lost).
const (
	KindReliable    = "rel.msg"
	KindReliableAck = "rel.ack"
)

// ReliableConfig tunes a ReliableEndpoint. The zero value gets sane
// defaults from normalized().
type ReliableConfig struct {
	// MaxAttempts is the total number of transmissions per message
	// before giving up (default 6).
	MaxAttempts int
	// BaseBackoff is the wait after the first transmission; it doubles
	// per retry (default 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the doubling (default 500ms).
	MaxBackoff time.Duration
	// JitterFrac randomizes each backoff by ±this fraction, decorrelating
	// retry storms (default 0.2).
	JitterFrac float64
	// Seed seeds the backoff jitter generator (0 = fixed default seed;
	// jitter only affects timing, never correctness).
	Seed int64
	// InOrder makes the receiver suppress messages older than the newest
	// already delivered from the same sender (acked but not handed to
	// the handler). Correct for full-state control messages — an interest
	// registration supersedes every earlier one — where a retried stale
	// message must never overwrite newer state.
	InOrder bool
	// OnGiveUp fires after MaxAttempts transmissions go unacknowledged.
	// It feeds the failure detector instead of blocking the sender: the
	// peer is likely dead or partitioned away.
	OnGiveUp func(to NodeID, kind string)
}

func (c ReliableConfig) normalized() ReliableConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	if c.JitterFrac <= 0 {
		c.JitterFrac = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ReliableEndpoint owns one transport endpoint and gives its
// control-plane sends at-least-once delivery with receiver-side
// suppression: sequence-numbered envelopes, acks, bounded retries with
// exponential backoff and jitter, and an explicit give-up callback.
// Non-reliable kinds (tuple traffic) pass through to the inner handler
// untouched, so one endpoint serves both planes.
type ReliableEndpoint struct {
	transport Transport
	self      NodeID
	inner     Handler
	cfg       ReliableConfig

	mu      sync.Mutex
	nextSeq uint64
	pending map[uint64]chan struct{}
	seen    map[NodeID]*dedupState
	rng     *rand.Rand
	closed  chan struct{}
	closeMu sync.Once

	// Retries counts retransmissions, GiveUps exhausted deliveries,
	// Suppressed duplicate or stale envelopes acked but not delivered.
	Retries    metrics.Counter
	GiveUps    metrics.Counter
	Suppressed metrics.Counter
}

// dedupState tracks which sequence numbers from one sender were already
// delivered. In InOrder mode only the newest delivered seq matters;
// otherwise a floor plus a sparse set above it survives reordering.
type dedupState struct {
	floor uint64
	above map[uint64]struct{}
}

// NewReliable registers `self` on the transport. h receives both
// unwrapped reliable messages and ordinary messages of other kinds.
func NewReliable(t Transport, self NodeID, h Handler, cfg ReliableConfig) (*ReliableEndpoint, error) {
	if t == nil || h == nil {
		return nil, fmt.Errorf("simnet: reliable endpoint %q needs a transport and a handler", self)
	}
	e := &ReliableEndpoint{
		transport: t,
		self:      self,
		inner:     h,
		cfg:       cfg.normalized(),
		pending:   make(map[uint64]chan struct{}),
		seen:      make(map[NodeID]*dedupState),
		closed:    make(chan struct{}),
	}
	e.rng = rand.New(rand.NewSource(e.cfg.Seed))
	if err := t.Register(self, e.handle); err != nil {
		return nil, err
	}
	return e, nil
}

// Send queues one reliable delivery and returns immediately; retries run
// in the background and exhaustion is reported through OnGiveUp, never
// by blocking the caller. payload is only lent: it is copied into the
// envelope, which is what every attempt hands to the transport.
func (e *ReliableEndpoint) Send(to NodeID, kind string, payload []byte) error {
	select {
	case <-e.closed:
		return errors.New("simnet: reliable endpoint closed")
	default:
	}
	e.mu.Lock()
	e.nextSeq++
	seq := e.nextSeq
	ack := make(chan struct{})
	e.pending[seq] = ack
	e.mu.Unlock()
	env := encodeReliable(seq, kind, payload)
	go e.deliver(to, kind, seq, env, ack)
	return nil
}

// deliver transmits until acked, the endpoint closes, or attempts run out.
func (e *ReliableEndpoint) deliver(to NodeID, kind string, seq uint64, env []byte, ack chan struct{}) {
	defer func() {
		e.mu.Lock()
		delete(e.pending, seq)
		e.mu.Unlock()
	}()
	backoff := e.cfg.BaseBackoff
	for attempt := 0; attempt < e.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			e.Retries.Inc()
		}
		// A transport error (unknown peer during a repair window) is
		// treated exactly like a lost message: retry, then give up. The
		// envelope is built per Send and never written again, so every
		// attempt hands the same one over.
		_ = Hand(e.transport, e.self, to, KindReliable, env)
		t := time.NewTimer(e.jittered(backoff))
		select {
		case <-ack:
			t.Stop()
			return
		case <-e.closed:
			t.Stop()
			return
		case <-t.C:
		}
		backoff *= 2
		if backoff > e.cfg.MaxBackoff {
			backoff = e.cfg.MaxBackoff
		}
	}
	e.GiveUps.Inc()
	if e.cfg.OnGiveUp != nil {
		e.cfg.OnGiveUp(to, kind)
	}
}

// jittered spreads a backoff by ±JitterFrac.
func (e *ReliableEndpoint) jittered(d time.Duration) time.Duration {
	e.mu.Lock()
	f := 1 + e.cfg.JitterFrac*(2*e.rng.Float64()-1)
	e.mu.Unlock()
	out := time.Duration(float64(d) * f)
	if out <= 0 {
		out = d
	}
	return out
}

// handle is the transport callback: unwrap + ack reliable envelopes,
// resolve acks, and pass everything else straight through.
func (e *ReliableEndpoint) handle(m Message) {
	switch m.Kind {
	case KindReliable:
		seq, kind, body, err := decodeReliable(m.Payload)
		if err != nil {
			return // corrupt envelope; drop (sender will retry)
		}
		// Always ack — the lost message may have been our previous ack.
		var sb [8]byte
		binary.LittleEndian.PutUint64(sb[:], seq)
		_ = e.transport.Send(e.self, m.From, KindReliableAck, sb[:])
		if e.shouldDeliver(m.From, seq) {
			e.inner(Message{From: m.From, To: m.To, Kind: kind, Payload: body})
		} else {
			e.Suppressed.Inc()
		}
	case KindReliableAck:
		if len(m.Payload) != 8 {
			return
		}
		seq := binary.LittleEndian.Uint64(m.Payload)
		e.mu.Lock()
		ack := e.pending[seq]
		delete(e.pending, seq)
		e.mu.Unlock()
		if ack != nil {
			close(ack)
		}
	default:
		e.inner(m)
	}
}

// shouldDeliver applies per-sender dedup (and ordering, when configured)
// and records delivery.
func (e *ReliableEndpoint) shouldDeliver(from NodeID, seq uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.seen[from]
	if st == nil {
		st = &dedupState{above: make(map[uint64]struct{})}
		e.seen[from] = st
	}
	if e.cfg.InOrder {
		// floor doubles as "newest delivered": anything at or below it is
		// stale or duplicate.
		if seq <= st.floor {
			return false
		}
		st.floor = seq
		return true
	}
	if seq <= st.floor {
		return false
	}
	if _, dup := st.above[seq]; dup {
		return false
	}
	st.above[seq] = struct{}{}
	for {
		if _, ok := st.above[st.floor+1]; !ok {
			break
		}
		st.floor++
		delete(st.above, st.floor)
	}
	return true
}

// Close stops retries and deregisters the endpoint.
func (e *ReliableEndpoint) Close() error {
	e.closeMu.Do(func() { close(e.closed) })
	return e.transport.Deregister(e.self)
}

// encodeReliable frames seq + inner kind + payload into an envelope.
func encodeReliable(seq uint64, kind string, payload []byte) []byte {
	buf := make([]byte, 0, 8+2+len(kind)+len(payload))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(kind)))
	buf = append(buf, kind...)
	return append(buf, payload...)
}

// decodeReliable splits an envelope back into its parts.
func decodeReliable(env []byte) (seq uint64, kind string, payload []byte, err error) {
	if len(env) < 10 {
		return 0, "", nil, errors.New("simnet: truncated reliable envelope")
	}
	seq = binary.LittleEndian.Uint64(env)
	n := int(binary.LittleEndian.Uint16(env[8:]))
	if len(env) < 10+n {
		return 0, "", nil, errors.New("simnet: truncated reliable kind")
	}
	return seq, string(env[10 : 10+n]), env[10+n:], nil
}
