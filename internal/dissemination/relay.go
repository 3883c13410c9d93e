package dissemination

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sspd/internal/metrics"
	"sspd/internal/obslog"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/trace"
)

// Message kinds used on the transport.
const (
	// KindTuples carries a binary-encoded stream.Batch down the tree.
	KindTuples = "diss.tuples"
	// KindInterest carries an interest registration up the tree: a
	// binary-encoded stream.InterestSet (stream.AppendInterestSet).
	KindInterest = "diss.interest"
)

// DefaultMaxInterestTerms bounds the size of the aggregated interest a
// node registers with its parent; beyond it terms are covered (widened),
// trading filter precision for registration size and for the state each
// ancestor keeps per child. It is not a bound on per-tuple filtering
// cost: the relay's match index hashes a tuple once however many keyed
// terms its children registered.
const DefaultMaxInterestTerms = 16

// Relay is one node of a dissemination tree at runtime: it receives the
// stream from its parent, delivers locally interesting tuples to its
// entity, and relays to each child only what that child's registered
// interest matches (early filtering). The node at the tree's source
// publishes instead of receiving.
//
// A link is a call: the relay sends to each child on the goroutine that
// handed it the batch (the publisher at the source, the node's transport
// runner elsewhere), in child order, and owns no goroutine of its own. A slow
// link therefore delays the children after it in the same batch — a
// batch costs the sum of its sends rather than the max — but the batch
// always waited for its slowest link. A send is a queue append on either
// transport, so a wedged peer holds the relay only once its link is full
// (4 MiB), and on TCP then only until the link's write deadline fails it.
type Relay struct {
	self      simnet.NodeID
	tree      *Tree
	schema    *stream.Schema
	transport simnet.Transport
	deliver   func(stream.Tuple)
	// deliverBatch, when set, receives all locally matched tuples of a
	// batch in one call (preferred over deliver on the hot path). They
	// are lent for the call (RelayOptions.DeliverBatch).
	deliverBatch func(stream.Batch)
	maxTerms     int
	// rel, when non-nil, carries control-plane sends (interest
	// registrations) with acks, bounded retries, and backoff; tuple
	// traffic always stays on the raw transport.
	rel *simnet.ReliableEndpoint

	mu sync.Mutex
	// local and children hold the registrations. A stored set is never
	// modified, only replaced, so a pointer read under mu is a snapshot.
	local    *stream.InterestSet
	children map[simnet.NodeID]childReg
	// index is what disseminate matches with: every registration and the
	// child list compiled into one immutable structure. A registration,
	// DropChild or a tree change makes it stale — the first two set it to
	// nil under mu, the third shows as a version mismatch — and the next
	// batch rebuilds it, so a burst of registrations costs one build.
	index *relayIndex

	// regMu serializes upward registrations: it is held across
	// aggregate computation AND the send, so a registration computed
	// from newer state can never be overtaken on the wire by one
	// computed from older state (which would leave the parent holding
	// a stale, narrower filter and silently drop tuples). With the
	// reliable endpoint, retries could still reorder registrations on
	// the wire — the receiver's in-order suppression drops the stale
	// one, and the periodic refresh re-converges after any loss.
	regMu sync.Mutex
	// closed, under regMu, turns registerUpward into a no-op once Close
	// has begun: a refresh tick that picked the relay up just before its
	// entity left sends nothing instead of failing on a dead endpoint.
	closed bool
	// sent and sentTo, under regMu, are the payload of the last
	// registration registerUpward sent and the parent it went to. An
	// aggregate byte-identical to it is not sent to that parent again
	// (only Refresh sends it), so a change that does not move this
	// relay's aggregate stops here.
	sent   []byte
	sentTo simnet.NodeID

	// errMu guards the send-failure bookkeeping: per-link error counts
	// plus the down/up state used to log once per transition instead of
	// once per message. Decode failures share the lock with the same
	// once-per-transition shape, keyed by message kind; decodeBadN lets
	// the hot path skip the lock entirely while nothing is failing.
	errMu      sync.Mutex
	linkErrs   map[simnet.NodeID]int64
	linkDown   map[simnet.NodeID]bool
	decodeErrs map[string]int64
	decodeBad  map[string]bool
	decodeBadN atomic.Int32

	// log receives the relay's typed events (link/decode transitions);
	// never nil after construction.
	log *obslog.Logger

	// Delivered counts tuples handed to the local entity; Relayed
	// counts tuples a child link accepted; Suppressed counts tuples
	// early filtering kept off a child link.
	Delivered  metrics.Counter
	Relayed    metrics.Counter
	Suppressed metrics.Counter
	// Registrations counts the interest registrations this relay sent
	// upward, one per registration however often the reliable endpoint
	// retransmits it; an unchanged aggregate it did not resend is not
	// counted.
	Registrations metrics.Counter
	// SendErrors counts transport sends this relay could not complete
	// (tuples and interest registrations alike) — the signal that was
	// silently discarded before the chaos layer existed.
	SendErrors metrics.Counter
	// DecodeErrors counts payloads this relay could not decode (corrupt
	// tuples or interest registrations) — previously a silent drop.
	DecodeErrors metrics.Counter
	// LinkBytes meters the encoded bytes and messages its downstream
	// links accepted — the per-link traffic signal the observability
	// layer aggregates per stream. A failed send is in SendErrors only.
	LinkBytes metrics.ByteMeter
}

// childReg is one child's registration: the set it registered and a
// copy of the payload it arrived in, which a repeated registration is
// compared to.
type childReg struct {
	set  *stream.InterestSet
	wire []byte
}

// RelayOptions configures the robustness features of a relay. The zero
// value reproduces the classic fire-and-forget relay.
type RelayOptions struct {
	// MaxTerms bounds the aggregated interest size (<= 0 uses
	// DefaultMaxInterestTerms).
	MaxTerms int
	// Reliable, when non-nil, delivers interest registrations through a
	// reliable endpoint (acks, bounded retries, exponential backoff);
	// its OnGiveUp feeds the failure detector. In-order suppression is
	// forced on: a retried stale registration must never overwrite a
	// newer one.
	Reliable *simnet.ReliableConfig
	// DeliverBatch, when non-nil, replaces the per-tuple deliver
	// callback with one call per batch of locally matched tuples. The
	// tuples are lent for the length of the call: the slice and the
	// Values may be the relay's decode buffer, reused by its next batch,
	// so a receiver that keeps a tuple copies it first (Batch.Compact),
	// and nobody writes to them.
	DeliverBatch func(stream.Batch)
	// Log receives the relay's typed events (link.down / link.up /
	// decode.bad / decode.ok, once per transition). Nil uses
	// obslog.Default().
	Log *obslog.Logger
}

// NewRelay attaches a relay for `self` to the transport. deliver may be
// nil for pure relays (and for the source). maxTerms <= 0 uses
// DefaultMaxInterestTerms.
func NewRelay(tree *Tree, self simnet.NodeID, schema *stream.Schema,
	transport simnet.Transport, deliver func(stream.Tuple), maxTerms int) (*Relay, error) {
	return NewRelayWith(tree, self, schema, transport, deliver, RelayOptions{MaxTerms: maxTerms})
}

// NewRelayWith attaches a relay with robustness options.
func NewRelayWith(tree *Tree, self simnet.NodeID, schema *stream.Schema,
	transport simnet.Transport, deliver func(stream.Tuple), opts RelayOptions) (*Relay, error) {
	if tree == nil || schema == nil || transport == nil {
		return nil, fmt.Errorf("dissemination: relay %q needs tree, schema, and transport", self)
	}
	if self != tree.Source() && !tree.Has(self) {
		return nil, fmt.Errorf("dissemination: %q is not in the %s tree", self, tree.Stream())
	}
	maxTerms := opts.MaxTerms
	if maxTerms <= 0 {
		maxTerms = DefaultMaxInterestTerms
	}
	r := &Relay{
		self:         self,
		tree:         tree,
		schema:       schema,
		transport:    transport,
		deliver:      deliver,
		deliverBatch: opts.DeliverBatch,
		maxTerms:     maxTerms,
		local:        stream.NewInterestSet(tree.Stream()),
		children:     make(map[simnet.NodeID]childReg),
		linkErrs:     make(map[simnet.NodeID]int64),
		linkDown:     make(map[simnet.NodeID]bool),
		decodeErrs:   make(map[string]int64),
		decodeBad:    make(map[string]bool),
		log:          opts.Log,
	}
	if r.log == nil {
		r.log = obslog.Default()
	}
	if opts.Reliable != nil {
		cfg := *opts.Reliable
		cfg.InOrder = true
		rel, err := simnet.NewReliable(transport, self, r.handle, cfg)
		if err != nil {
			return nil, err
		}
		r.rel = rel
	} else if err := transport.Register(self, r.handle); err != nil {
		return nil, err
	}
	return r, nil
}

// SetLocalInterest replaces the entity's own data interest (the union of
// its allocated queries' interests) and re-registers the aggregate with
// the parent if that moved it. The relay keeps the terms, which are
// immutable (stream.Interest), without copying them.
func (r *Relay) SetLocalInterest(terms []stream.Interest) error {
	set := stream.NewInterestSet(r.tree.Stream())
	for _, in := range terms {
		set.Add(in)
	}
	r.mu.Lock()
	r.local = set
	r.index = nil
	r.mu.Unlock()
	return r.registerUpward(false)
}

// aggregate returns the union of local and child interests, simplified.
// It shares the registered terms (Simplify replaces the ones it merges
// in its own slice). Only the snapshot of the registered sets is taken
// under mu — the lock every disseminate takes per batch; simplifying
// runs outside it (regMu, held by every caller, already orders
// registrations).
func (r *Relay) aggregate() *stream.InterestSet {
	r.mu.Lock()
	ids := make([]simnet.NodeID, 0, len(r.children))
	for id := range r.children {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sets := make([]*stream.InterestSet, 0, 1+len(ids))
	sets = append(sets, r.local)
	for _, id := range ids {
		sets = append(sets, r.children[id].set)
	}
	r.mu.Unlock()
	n := 0
	for _, set := range sets {
		n += len(set.Terms)
	}
	agg := &stream.InterestSet{Stream: r.tree.Stream(), Terms: make([]stream.Interest, 0, n)}
	for _, set := range sets {
		agg.Terms = append(agg.Terms, set.Terms...)
	}
	agg.Simplify(r.schema, r.maxTerms)
	return agg
}

// registerUpward sends the node's aggregate interest to its parent,
// unless always is false and the parent was last sent these very bytes.
// The source has no parent; registration stops there.
func (r *Relay) registerUpward(always bool) error {
	if r.self == r.tree.Source() {
		return nil
	}
	r.regMu.Lock()
	defer r.regMu.Unlock()
	if r.closed {
		return nil
	}
	parent := r.tree.Parent(r.self)
	payload := stream.AppendInterestSet(nil, r.aggregate())
	if !always && parent == r.sentTo && bytes.Equal(payload, r.sent) {
		return nil
	}
	if err := r.sendControl(parent, payload); err != nil {
		r.sent = nil // the next registration sends whatever it holds
		return err
	}
	r.sent, r.sentTo = payload, parent
	return nil
}

// sendControl dispatches one interest registration, reliably when the
// relay has a reliable endpoint, and accounts the failure either way.
func (r *Relay) sendControl(to simnet.NodeID, payload []byte) error {
	var err error
	if r.rel != nil {
		err = r.rel.Send(to, KindInterest, payload)
	} else {
		err = r.transport.Send(r.self, to, KindInterest, payload)
	}
	if err != nil {
		r.noteSendError(to, err)
		return err
	}
	r.Registrations.Inc()
	return nil
}

// Refresh re-registers the relay's aggregate interest with its current
// parent, whether or not it changed since the last registration. The
// federation calls it on every relay rewired by a dynamic tree operation
// (AddMember, RemoveMember, Reorganize), and periodically from its
// control clock as soft state that re-converges ancestor filters after a
// lost registration or a tree repair. A source relay has nowhere to
// refresh to; the call is a no-op there.
func (r *Relay) Refresh() error { return r.registerUpward(true) }

// Reliable exposes the relay's control-plane endpoint (nil when the
// relay sends fire-and-forget).
func (r *Relay) Reliable() *simnet.ReliableEndpoint { return r.rel }

// noteSendError accounts one failed transport send and logs on the
// link's up→down transition only.
func (r *Relay) noteSendError(link simnet.NodeID, err error) {
	r.SendErrors.Inc()
	r.errMu.Lock()
	r.linkErrs[link]++
	first := !r.linkDown[link]
	if first {
		r.linkDown[link] = true
	}
	r.errMu.Unlock()
	if first {
		r.log.Warn("link.down", string(r.self), "send failing (logging once until recovery)",
			"link", link, "err", err)
	}
}

// noteSendOK clears a link's down state, logging the recovery.
func (r *Relay) noteSendOK(link simnet.NodeID) {
	r.errMu.Lock()
	recovered := r.linkDown[link]
	if recovered {
		delete(r.linkDown, link)
	}
	r.errMu.Unlock()
	if recovered {
		r.log.Warn("link.up", string(r.self), "send recovered", "link", link)
	}
}

// SendErrorsByLink snapshots the per-link failed-send counts.
func (r *Relay) SendErrorsByLink() map[simnet.NodeID]int64 {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	out := make(map[simnet.NodeID]int64, len(r.linkErrs))
	for link, n := range r.linkErrs {
		out[link] = n
	}
	return out
}

// PreRegister sends the relay's aggregate interest to an arbitrary node
// — the make-before-break half of a rewire: registering with the future
// parent BEFORE the tree edge flips makes the new path's ancestors widen
// their filters in advance, so no tuple addressed to this subtree is
// dropped during the switch. (The future parent stores the registration
// like any child's; until the flip it only widens its aggregate, which
// is always safe.)
func (r *Relay) PreRegister(target simnet.NodeID) error {
	r.regMu.Lock()
	defer r.regMu.Unlock()
	return r.sendControl(target, stream.AppendInterestSet(nil, r.aggregate()))
}

// DropChild discards a former child's registered interest, e.g. after
// the tree rewired that child elsewhere, so its next registration is
// taken whatever it holds.
func (r *Relay) DropChild(id simnet.NodeID) {
	r.mu.Lock()
	delete(r.children, id)
	r.index = nil
	r.mu.Unlock()
}

// Publish injects a batch at the source and disseminates it. Only the
// source relay may publish.
func (r *Relay) Publish(batch stream.Batch) error {
	if r.self != r.tree.Source() {
		return fmt.Errorf("dissemination: %q is not the source of %s", r.self, r.tree.Stream())
	}
	r.disseminate(batch, nil)
	return nil
}

// HandleTuples processes one encoded tuple batch as if it had arrived
// from the relay's parent — the wire-level entry point benchmarks and
// bridge transports feed directly. Like a delivered Message.Payload,
// payload is lent for the call: the relay may forward it to its children
// through Send, which copies it.
func (r *Relay) HandleTuples(payload []byte) {
	r.handle(simnet.Message{From: r.tree.Parent(r.self), To: r.self, Kind: KindTuples, Payload: payload})
}

// handle is the transport callback.
func (r *Relay) handle(m simnet.Message) {
	switch m.Kind {
	case KindTuples:
		db := stream.GetDecodeBuffer()
		batch, _, err := db.Decode(m.Payload)
		if err != nil {
			stream.PutDecodeBuffer(db)
			r.noteDecodeError("tuples", err)
			return
		}
		r.noteDecodeOK("tuples")
		// The decoded batch lives in the pooled buffer: disseminate has
		// fully consumed it (the entity has copied its local matches,
		// downstream payloads are sent) by the time it returns, so the
		// buffer can go back to the pool.
		r.disseminate(batch, m.Payload)
		stream.PutDecodeBuffer(db)
	case KindInterest:
		// A registration byte-identical to the child's last one (a
		// refresh of unchanged state) changes nothing: no decode, no
		// index rebuild, no upward send. The relay's own refresh keeps
		// its parent current. The payload is only lent, so a changed
		// registration keeps a copy.
		r.mu.Lock()
		last, ok := r.children[m.From]
		r.mu.Unlock()
		if ok && bytes.Equal(last.wire, m.Payload) {
			return
		}
		set, err := decodeInterestSet(m.Payload, r.tree.Stream())
		if err != nil {
			r.noteDecodeError("interest", err)
			return
		}
		r.noteDecodeOK("interest")
		r.mu.Lock()
		r.children[m.From] = childReg{set: set, wire: bytes.Clone(m.Payload)}
		r.index = nil
		r.mu.Unlock()
		// Propagate the updated aggregate toward the source, if it moved.
		_ = r.registerUpward(false)
	}
}

// relayIndex is one immutable generation of everything disseminate
// needs to route a batch: the match index, whose owner 0 is the entity's
// local set and owner 1+i is children[i], and the tree version the child
// list was read at.
type relayIndex struct {
	ix       *stream.MatchIndex
	children []simnet.NodeID
	treeVer  uint64
}

// currentIndex returns the index for the next batch, rebuilding it first
// when it is stale. Concurrent disseminate calls read the returned
// generation without mu: nothing in it changes after it is published.
func (r *Relay) currentIndex() *relayIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	ver := r.tree.Version()
	if ri := r.index; ri != nil && ri.treeVer == ver {
		return ri
	}
	children := r.tree.Children(r.self)
	owners := make([]*stream.InterestSet, 1+len(children))
	owners[0] = r.local
	if r.deliver == nil && r.deliverBatch == nil {
		// Nobody to deliver to: an empty set keeps the local terms of a
		// pure relay out of the per-tuple work.
		owners[0] = stream.NewInterestSet(r.tree.Stream())
	}
	for i, c := range children {
		// nil when the child has not registered yet: forward everything.
		owners[1+i] = r.children[c].set
	}
	r.index = &relayIndex{
		ix:       stream.NewMatchIndex(r.tree.Stream(), r.schema, owners),
		children: children,
		treeVer:  ver,
	}
	return r.index
}

// dissemScratch holds all per-batch fan-out state so a steady-state
// disseminate allocates nothing: the per-owner matched rows, a sub-batch
// that gathers the rows lent to the entity, and the pooled encode
// buffers to release after the sends.
type dissemScratch struct {
	routed stream.Routed
	sub    stream.Batch
	bufs   []*[]byte
}

var scratchPool = sync.Pool{New: func() any { return new(dissemScratch) }}

// disseminate delivers locally matched tuples and fans the batch out to
// the children. The batch is matched once, against the local set and
// every child's registration together (MatchIndex.Route); local delivery
// and the fan-out then read their rows. wire, when non-nil, is the
// incoming encoded payload, lent for the handler's call: a child that
// matched the whole batch (or that has no registration yet) is sent
// those bytes verbatim, so a pure-relay hop does not re-encode; the
// transport's copy is a memcpy. Each child's send runs here, in child
// order, so disseminate returns only after every one has returned: that
// keeps transport quiescence sound (every message this batch causes is
// on the wire before the handler that received the batch returns), and
// since Transport.Send is only lent its payload, every pooled buffer and
// the incoming payload are free once it returns.
func (r *Relay) disseminate(batch stream.Batch, wire []byte) {
	if len(batch) == 0 {
		return
	}
	sc := scratchPool.Get().(*dissemScratch)
	ri := r.currentIndex()

	traced := batch.HasSpan() // asked once per batch, for both hops
	if traced {
		self := string(r.self)
		for i := range batch {
			trace.Record(trace.SpanID(batch[i].Span), trace.StageRelay, self)
		}
	}
	ri.ix.Route(batch, &sc.routed)
	r.deliverLocal(batch, sc.routed.Rows(0), sc, traced)

	// Fan-out. The incoming payload (or one pooled full-batch encoding)
	// is shared by every pass-through child; partial matches encode just
	// the matched rows, where they stand, into a pooled buffer. Every
	// payload is lent to Send, which copies it or writes it out before
	// returning. Relayed and the link meter count what a link accepted,
	// never a failed send.
	n := len(batch)
	var fullPayload []byte
	for ci, c := range ri.children {
		rows := sc.routed.Rows(1 + ci)
		matched := len(rows)
		if matched == 0 {
			r.Suppressed.Add(int64(n))
			continue
		}
		var payload []byte
		if matched == n {
			// Everything matched (or no registration yet: forward all,
			// which is safe): reuse the incoming wire bytes verbatim.
			if fullPayload == nil {
				if wire != nil {
					fullPayload = wire
				} else {
					buf := stream.GetEncodeBuffer()
					*buf = stream.AppendBatch((*buf)[:0], batch)
					sc.bufs = append(sc.bufs, buf)
					fullPayload = *buf
				}
			}
			payload = fullPayload
		} else {
			buf := stream.GetEncodeBuffer()
			*buf = stream.AppendBatchRows((*buf)[:0], batch, rows)
			sc.bufs = append(sc.bufs, buf)
			payload = *buf
		}
		r.Suppressed.Add(int64(n - matched))
		if err := r.transport.Send(r.self, c, KindTuples, payload); err != nil {
			r.noteSendError(c, err)
			continue
		}
		r.noteSendOK(c)
		r.Relayed.Add(int64(matched))
		r.LinkBytes.Record(len(payload))
	}
	for i, buf := range sc.bufs {
		stream.PutEncodeBuffer(buf)
		sc.bufs[i] = nil
	}
	sc.bufs = sc.bufs[:0]
	sc.sub = sc.sub[:0]
	scratchPool.Put(sc)
}

// deliverLocal hands the locally matched tuples — rows of the batch — to
// the entity. DeliverBatch is lent them for the call: the batch itself
// when every row matched, else the rows gathered into the scratch, their
// Values still in the relay's decode buffer (or the publisher's batch).
// The engine of the entity's processor makes the one copy a tuple gets
// per entity, into storage of its choosing, before the call returns
// (engine.GroupFeeder's FeedGroupLent). The per-tuple deliver callback
// keeps what it is handed, so it gets an owned clone (Batch.Compact: one
// Values arena plus one Batch). A relay with nobody to deliver to never
// has rows: currentIndex gives its owner 0 the empty set.
func (r *Relay) deliverLocal(batch stream.Batch, rows []int32, sc *dissemScratch, traced bool) {
	if len(rows) == 0 {
		return
	}
	r.Delivered.Add(int64(len(rows)))
	if traced {
		self := string(r.self)
		for _, i := range rows {
			trace.Record(trace.SpanID(batch[i].Span), trace.StageDeliver, self)
		}
	}
	if r.deliverBatch == nil {
		for _, t := range batch.Compact(rows) {
			r.deliver(t)
		}
		return
	}
	lent := batch
	if len(rows) < len(batch) {
		sc.sub = sc.sub[:0]
		for _, i := range rows {
			sc.sub = append(sc.sub, batch[i])
		}
		lent = sc.sub
	}
	r.deliverBatch(lent)
}

// noteDecodeError accounts one undecodable payload and logs on the
// kind's good→bad transition only, mirroring the send-error pattern.
func (r *Relay) noteDecodeError(kind string, err error) {
	r.DecodeErrors.Inc()
	r.errMu.Lock()
	r.decodeErrs[kind]++
	first := !r.decodeBad[kind]
	if first {
		r.decodeBad[kind] = true
		r.decodeBadN.Add(1)
	}
	r.errMu.Unlock()
	if first {
		r.log.Warn("decode.bad", string(r.self), "dropping corrupt payloads (logging once until recovery)",
			"kind", kind, "err", err)
	}
}

// noteDecodeOK clears a kind's bad state, logging the recovery. The
// atomic fast path keeps the healthy hot path lock-free.
func (r *Relay) noteDecodeOK(kind string) {
	if r.decodeBadN.Load() == 0 {
		return
	}
	r.errMu.Lock()
	recovered := r.decodeBad[kind]
	if recovered {
		delete(r.decodeBad, kind)
		r.decodeBadN.Add(-1)
	}
	r.errMu.Unlock()
	if recovered {
		r.log.Warn("decode.ok", string(r.self), "payloads decoding again", "kind", kind)
	}
}

// DecodeErrorsByKind snapshots the per-kind decode-failure counts.
func (r *Relay) DecodeErrorsByKind() map[string]int64 {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	out := make(map[string]int64, len(r.decodeErrs))
	for kind, n := range r.decodeErrs {
		out[kind] = n
	}
	return out
}

// Close deregisters the relay from the transport; a batch still in
// flight finds its sends failing and counts them in SendErrors. It waits
// for an upward registration in progress, and later ones send nothing.
func (r *Relay) Close() error {
	r.regMu.Lock()
	r.closed = true
	r.regMu.Unlock()
	if r.rel != nil {
		return r.rel.Close()
	}
	return r.transport.Deregister(r.self)
}

// decodeInterestSet decodes a registration for the relay's tree.
func decodeInterestSet(payload []byte, wantStream string) (*stream.InterestSet, error) {
	set, err := stream.DecodeInterestSet(payload)
	if err != nil {
		return nil, err
	}
	if set.Stream != wantStream {
		return nil, fmt.Errorf("dissemination: interest for %q on %q tree", set.Stream, wantStream)
	}
	return set, nil
}
