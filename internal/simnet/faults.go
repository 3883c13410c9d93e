package simnet

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sspd/internal/metrics"
)

// FaultKind names one class of injected fault, used as the `kind` label
// on the sspd_faults_injected metric.
type FaultKind string

// Injected fault kinds.
const (
	FaultDrop      FaultKind = "drop"
	FaultDuplicate FaultKind = "duplicate"
	FaultReorder   FaultKind = "reorder"
	FaultJitter    FaultKind = "jitter"
	FaultPartition FaultKind = "partition"
	FaultBlackhole FaultKind = "blackhole"
)

// faultKinds lists every kind, for stable iteration in reports.
var faultKinds = []FaultKind{
	FaultDrop, FaultDuplicate, FaultReorder, FaultJitter, FaultPartition, FaultBlackhole,
}

// LinkFaults is the fault rule applied to one directed link (or, as the
// plan default, to every link without an override). Zero value = no
// faults.
type LinkFaults struct {
	// Drop is the probability a message is silently lost.
	Drop float64
	// Duplicate is the probability a message is delivered twice.
	Duplicate float64
	// Reorder is the probability a message is held back by ReorderDelay
	// so later sends overtake it.
	Reorder float64
	// ReorderDelay is how long a reordered message is held (default 2ms).
	ReorderDelay time.Duration
	// Jitter adds a uniform random delay in [0, Jitter) to every
	// message on the link.
	Jitter time.Duration
}

func (f LinkFaults) zero() bool {
	return f.Drop == 0 && f.Duplicate == 0 && f.Reorder == 0 && f.Jitter == 0
}

// FaultPlan wraps any Transport with deterministic, seeded fault
// injection: per-link drop/duplicate/reorder/jitter rules, bidirectional
// partitions, and node blackholes — all togglable at runtime. Every
// injected fault is counted, and (when a registry is attached) exposed
// as sspd_faults_injected{kind,link}. A FaultPlan forwards Quiesce to
// the wrapped transport after its own delayed deliveries drain, so
// simulation code that settles on SimNet keeps working under faults.
//
// The wrapped transport is embedded: Register, Deregister and Traffic are
// its own (bytes are accounted by it at actual delivery, so dropped
// messages are never counted); FaultPlan overrides Send and Close.
type FaultPlan struct {
	Transport

	mu         sync.Mutex
	rng        *rand.Rand
	defaults   LinkFaults
	links      map[linkKey]LinkFaults
	partitions map[pairKey]bool
	blackholes map[NodeID]bool
	registry   *metrics.Registry
	counts     map[FaultKind]*atomic.Int64

	enabled  atomic.Bool
	inflight atomic.Int64
	closed   chan struct{}
	closeOne sync.Once
}

// pairKey is an unordered node pair (partitions are bidirectional).
type pairKey struct{ a, b NodeID }

func mkPair(a, b NodeID) pairKey {
	if b < a {
		a, b = b, a
	}
	return pairKey{a, b}
}

// NewFaultPlan wraps a transport; the seed makes every probabilistic
// decision reproducible for a fixed send sequence. The plan starts
// enabled but with no fault rules, i.e. a transparent pass-through.
func NewFaultPlan(inner Transport, seed int64) *FaultPlan {
	p := &FaultPlan{
		Transport:  inner,
		rng:        rand.New(rand.NewSource(seed)),
		links:      make(map[linkKey]LinkFaults),
		partitions: make(map[pairKey]bool),
		blackholes: make(map[NodeID]bool),
		counts:     make(map[FaultKind]*atomic.Int64, len(faultKinds)),
		closed:     make(chan struct{}),
	}
	for _, k := range faultKinds {
		p.counts[k] = &atomic.Int64{}
	}
	p.enabled.Store(true)
	return p
}

// SetEnabled toggles all fault injection at runtime; disabled, the plan
// is a transparent pass-through (rules are kept, not cleared).
func (p *FaultPlan) SetEnabled(on bool) { p.enabled.Store(on) }

// SetDefaultFaults installs the rule applied to every link without a
// per-link override.
func (p *FaultPlan) SetDefaultFaults(f LinkFaults) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.defaults = f
}

// SetLinkFaults overrides the fault rule on one directed link.
func (p *FaultPlan) SetLinkFaults(from, to NodeID, f LinkFaults) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.links[linkKey{from, to}] = f
}

// Partition blocks all traffic between a and b, both directions.
func (p *FaultPlan) Partition(a, b NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.partitions[mkPair(a, b)] = true
}

// Heal removes a partition.
func (p *FaultPlan) Heal(a, b NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.partitions, mkPair(a, b))
}

// Blackhole silently discards every message to or from the given nodes
// (modeling a crashed or unreachable process whose endpoint is still
// registered).
func (p *FaultPlan) Blackhole(ids ...NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		p.blackholes[id] = true
	}
}

// Restore removes nodes from the blackhole set.
func (p *FaultPlan) Restore(ids ...NodeID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		delete(p.blackholes, id)
	}
}

// SetRegistry attaches a metric registry; from then on every injected
// fault also increments sspd_faults_injected{kind,link}. The federation
// attaches its own registry automatically when constructed over a
// FaultPlan.
func (p *FaultPlan) SetRegistry(r *metrics.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.registry = r
}

// InjectedTotals returns every kind's count (kinds with zero injections
// included), for reports.
func (p *FaultPlan) InjectedTotals() map[string]int64 {
	out := make(map[string]int64, len(faultKinds))
	for _, k := range faultKinds {
		out[string(k)] = p.counts[k].Load()
	}
	return out
}

// count records one injected fault on a link.
func (p *FaultPlan) count(kind FaultKind, from, to NodeID, reg *metrics.Registry) {
	p.counts[kind].Add(1)
	if reg != nil {
		reg.Counter("sspd_faults_injected",
			"Transport faults injected by the chaos layer, by kind and link.",
			metrics.L("kind", string(kind)),
			metrics.L("link", string(from)+"->"+string(to))).Inc()
	}
}

// Send implements Transport, applying the configured fault rules. A
// lent payload is copied once, only when a delivery outlives the call (a
// delay or a duplicate); every delivery of the copy lends it to the
// wrapped transport in turn.
func (p *FaultPlan) Send(from, to NodeID, kind string, payload []byte) error {
	if !p.enabled.Load() {
		return p.Transport.Send(from, to, kind, payload)
	}

	// All probabilistic decisions are drawn under one lock from the
	// seeded generator, so a fixed send sequence yields a fixed fault
	// sequence.
	p.mu.Lock()
	reg := p.registry
	if p.blackholes[from] || p.blackholes[to] {
		p.mu.Unlock()
		p.count(FaultBlackhole, from, to, reg)
		return nil
	}
	if p.partitions[mkPair(from, to)] {
		p.mu.Unlock()
		p.count(FaultPartition, from, to, reg)
		return nil
	}
	rule, ok := p.links[linkKey{from, to}]
	if !ok {
		rule = p.defaults
	}
	if rule.zero() {
		p.mu.Unlock()
		return p.Transport.Send(from, to, kind, payload)
	}
	drop := rule.Drop > 0 && p.rng.Float64() < rule.Drop
	var dup, reorder bool
	var delay time.Duration
	if !drop {
		dup = rule.Duplicate > 0 && p.rng.Float64() < rule.Duplicate
		reorder = rule.Reorder > 0 && p.rng.Float64() < rule.Reorder
		if rule.Jitter > 0 {
			delay = time.Duration(p.rng.Int63n(int64(rule.Jitter)))
		}
	}
	p.mu.Unlock()

	if drop {
		p.count(FaultDrop, from, to, reg)
		return nil
	}
	if delay > 0 {
		p.count(FaultJitter, from, to, reg)
	}
	if reorder {
		p.count(FaultReorder, from, to, reg)
		rd := rule.ReorderDelay
		if rd <= 0 {
			rd = 2 * time.Millisecond
		}
		delay += rd
	}
	if dup || delay > 0 {
		payload = bytes.Clone(payload)
	}
	if dup {
		p.count(FaultDuplicate, from, to, reg)
		p.sendAfter(delay+time.Millisecond, from, to, kind, payload)
	}
	if delay > 0 {
		p.sendAfter(delay, from, to, kind, payload)
		return nil
	}
	return p.Transport.Send(from, to, kind, payload)
}

// sendAfter lends payload to the wrapped transport after a delay; the
// in-flight count keeps Quiesce honest. payload is Send's copy, which
// nobody writes: a duplicate and a deferred delivery share it.
func (p *FaultPlan) sendAfter(d time.Duration, from, to NodeID, kind string, payload []byte) {
	p.inflight.Add(1)
	go func() {
		defer p.inflight.Add(-1)
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-p.closed:
			return
		}
		_ = p.Transport.Send(from, to, kind, payload)
	}()
}

// Quiesce waits for the plan's delayed deliveries to drain and then for
// the wrapped transport to go idle (when it supports quiescence). A
// delayed delivery can wake new traffic, so both conditions are
// re-checked until they hold together.
func (p *FaultPlan) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	q, hasQ := p.Transport.(interface{ Quiesce(time.Duration) bool })
	for {
		if p.inflight.Load() == 0 {
			innerIdle := true
			if hasQ {
				remain := time.Until(deadline)
				if remain <= 0 {
					return false
				}
				innerIdle = q.Quiesce(remain)
			}
			if innerIdle && p.inflight.Load() == 0 {
				return true
			}
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Close implements Transport: pending delayed deliveries are cancelled
// and the wrapped transport is closed.
func (p *FaultPlan) Close() error {
	p.closeOne.Do(func() { close(p.closed) })
	return p.Transport.Close()
}

var _ Transport = (*FaultPlan)(nil)
