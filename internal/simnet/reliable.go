package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
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

// Backoff jitter: each backoff is randomized by ±reliableJitter,
// decorrelating retry storms. Jitter only affects timing, never
// correctness, so every endpoint draws it from one fixed seed.
const (
	reliableJitter = 0.2
	reliableSeed   = 1
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
	return c
}

// ReliableEndpoint owns one transport endpoint and gives its
// control-plane sends at-least-once delivery with receiver-side
// suppression: sequence-numbered envelopes, acks, bounded retries with
// exponential backoff and jitter, and an explicit give-up callback.
// Non-reliable kinds (tuple traffic) pass through to the inner handler
// untouched, so one endpoint serves both planes.
//
// Every envelope and ack carries the endpoint's incarnation, drawn at
// NewReliable and larger than any drawn before it. An entity that
// re-joins under its old ID gets a new endpoint that restarts at seq 1:
// its newer incarnation resets the receiver's record of that sender, so
// its first messages are delivered, not taken for duplicates of the old
// incarnation's.
type ReliableEndpoint struct {
	transport Transport
	self      NodeID
	inner     Handler
	cfg       ReliableConfig
	inc       uint64

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

// dedupState tracks which sequence numbers from one incarnation of a
// sender were already delivered. In InOrder mode only the newest
// delivered seq matters; otherwise a floor plus a sparse set above it
// survives reordering.
type dedupState struct {
	inc   uint64
	floor uint64
	above map[uint64]struct{}
}

// incarnations counts endpoint incarnations up from the wall clock at
// start-up, so a restarted process draws past its predecessor.
var incarnations atomic.Uint64

func init() { incarnations.Store(uint64(time.Now().UnixNano())) }

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
		inc:       incarnations.Add(1),
		pending:   make(map[uint64]chan struct{}),
		seen:      make(map[NodeID]*dedupState),
		rng:       rand.New(rand.NewSource(reliableSeed)),
		closed:    make(chan struct{}),
	}
	if err := t.Register(self, e.handle); err != nil {
		return nil, err
	}
	return e, nil
}

// Send makes one reliable delivery. The first transmission is sent on
// the transport on the caller's goroutine, before Send returns, so a
// transport's Quiesce (Federation.Settle) sees it. That is a queue append
// on either transport: a first attempt to a wedged peer waits here only
// while the peer's link is full.
// Retries run in the background, and exhaustion is reported through
// OnGiveUp, never by blocking the caller. payload is only lent: it is
// copied into the envelope, which every attempt lends to the transport.
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
	env := encodeReliable(e.inc, seq, kind, payload)
	// A transport error (unknown peer during a repair window) is treated
	// exactly like a lost message: retry, then give up.
	_ = e.transport.Send(e.self, to, KindReliable, env)
	go e.retry(to, kind, seq, env, ack)
	return nil
}

// retry retransmits after each backoff until acked, the endpoint
// closes, or attempts run out.
func (e *ReliableEndpoint) retry(to NodeID, kind string, seq uint64, env []byte, ack chan struct{}) {
	defer func() {
		e.mu.Lock()
		delete(e.pending, seq)
		e.mu.Unlock()
	}()
	backoff := e.cfg.BaseBackoff
	for attempt := 1; ; attempt++ {
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
		if attempt == e.cfg.MaxAttempts {
			break
		}
		e.Retries.Inc()
		_ = e.transport.Send(e.self, to, KindReliable, env)
		backoff = min(2*backoff, e.cfg.MaxBackoff)
	}
	e.GiveUps.Inc()
	if e.cfg.OnGiveUp != nil {
		e.cfg.OnGiveUp(to, kind)
	}
}

// jittered spreads a backoff by ±reliableJitter.
func (e *ReliableEndpoint) jittered(d time.Duration) time.Duration {
	e.mu.Lock()
	f := 1 + reliableJitter*(2*e.rng.Float64()-1)
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
		inc, seq, kind, body, err := decodeReliable(m.Payload)
		if err != nil {
			return // corrupt envelope; drop (sender will retry)
		}
		// Always ack — the lost message may have been our previous ack.
		var ab [16]byte
		binary.LittleEndian.PutUint64(ab[:], seq)
		binary.LittleEndian.PutUint64(ab[8:], inc)
		_ = e.transport.Send(e.self, m.From, KindReliableAck, ab[:])
		if e.shouldDeliver(m.From, inc, seq) {
			e.inner(Message{From: m.From, To: m.To, Kind: kind, Payload: body})
		} else {
			e.Suppressed.Inc()
		}
	case KindReliableAck:
		// An ack meant for an earlier incarnation of this endpoint's ID
		// names a seq of that incarnation, not of this one.
		if len(m.Payload) != 16 || binary.LittleEndian.Uint64(m.Payload[8:]) != e.inc {
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
// and records delivery. A newer incarnation of the sender starts its
// record afresh; an older one is suppressed.
func (e *ReliableEndpoint) shouldDeliver(from NodeID, inc, seq uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.seen[from]
	if st != nil && inc < st.inc {
		return false
	}
	if st == nil || inc > st.inc {
		st = &dedupState{inc: inc, above: make(map[uint64]struct{})}
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

// encodeReliable frames incarnation + seq + inner kind + payload into an
// envelope.
func encodeReliable(inc, seq uint64, kind string, payload []byte) []byte {
	buf := make([]byte, 0, 16+2+len(kind)+len(payload))
	buf = binary.LittleEndian.AppendUint64(buf, inc)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(kind)))
	buf = append(buf, kind...)
	return append(buf, payload...)
}

// decodeReliable splits an envelope back into its parts.
func decodeReliable(env []byte) (inc, seq uint64, kind string, payload []byte, err error) {
	if len(env) < 18 {
		return 0, 0, "", nil, errors.New("simnet: truncated reliable envelope")
	}
	inc = binary.LittleEndian.Uint64(env)
	seq = binary.LittleEndian.Uint64(env[8:])
	n := int(binary.LittleEndian.Uint16(env[16:]))
	if len(env) < 18+n {
		return 0, 0, "", nil, errors.New("simnet: truncated reliable kind")
	}
	return inc, seq, string(env[18 : 18+n]), env[18+n:], nil
}
