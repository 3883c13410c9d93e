package coordinator

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sspd/internal/simnet"
)

// Heartbeat message kinds.
const (
	// KindPing is a liveness probe.
	KindPing = "hb.ping"
	// KindPong answers a probe.
	KindPong = "hb.pong"
)

// Detector implements the paper's failure detection: "heartbeat messages
// are sent periodically among the parent and children to detect any node
// failure". A Detector owns one transport endpoint, pings the peers it
// watches every interval, and declares a peer failed after `threshold`
// missed intervals — invoking the failure callback exactly once per
// failure episode (a peer that answers again re-arms detection).
//
// The detector is driven either by Start (a real ticker) or by calling
// Tick directly with an injected clock — tests and simulations use the
// latter for determinism.
type Detector struct {
	self      simnet.NodeID
	transport simnet.Transport
	interval  time.Duration
	threshold int
	onFailure func(simnet.NodeID)
	now       func() time.Time

	mu    sync.Mutex
	peers map[simnet.NodeID]*peerState
	stop  chan struct{}
	done  chan struct{}
}

type peerState struct {
	lastPong time.Time
	// suspected marks a peer already reported failed; cleared when a
	// pong arrives.
	suspected bool
}

// NewDetector registers a heartbeat endpoint `self` on the transport.
// interval must be positive; threshold < 1 defaults to 3. onFailure may
// be nil (failures are then only visible in Tick's result).
func NewDetector(transport simnet.Transport, self simnet.NodeID,
	interval time.Duration, threshold int, onFailure func(simnet.NodeID)) (*Detector, error) {
	if transport == nil {
		return nil, fmt.Errorf("coordinator: detector needs a transport")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("coordinator: detector needs a positive interval")
	}
	if threshold < 1 {
		threshold = 3
	}
	d := &Detector{
		self:      self,
		transport: transport,
		interval:  interval,
		threshold: threshold,
		onFailure: onFailure,
		now:       time.Now,
		peers:     make(map[simnet.NodeID]*peerState),
	}
	if err := transport.Register(self, d.handle); err != nil {
		return nil, err
	}
	return d, nil
}

// SetClock replaces the wall clock (before Start; tests only).
func (d *Detector) SetClock(now func() time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.now = now
}

// Watch starts monitoring a peer. The peer is granted a full grace
// window from now.
func (d *Detector) Watch(peer simnet.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.peers[peer]; !ok {
		d.peers[peer] = &peerState{lastPong: d.now()}
	}
}

// Unwatch stops monitoring a peer.
func (d *Detector) Unwatch(peer simnet.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.peers, peer)
}

// handle answers pings and records pongs.
func (d *Detector) handle(m simnet.Message) {
	switch m.Kind {
	case KindPing:
		_ = d.transport.Send(d.self, m.From, KindPong, nil)
	case KindPong:
		d.mu.Lock()
		st, ok := d.peers[m.From]
		if ok {
			st.lastPong = d.now()
			st.suspected = false
		}
		d.mu.Unlock()
	}
}

// ReportFailure feeds an out-of-band failure signal into the detector —
// the reliable control plane calls it when deliveries to a peer's
// entity exhaust their retries. The report does not declare the peer
// failed outright (the reporter may itself be the partitioned side);
// instead it ages the peer's pong deadline so the peer becomes overdue
// two intervals from now — enough slack for at least one full ping
// round before the verdict — unless it answers the detector's own
// confirmation ping. A dead peer is thus expelled within ~2 intervals
// instead of the full threshold window; a healthy one clears the
// suspicion with its next pong. It reports whether the signal was
// accepted (watched and not already suspected).
func (d *Detector) ReportFailure(peer simnet.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.peers[peer]
	if !ok || st.suspected {
		return false
	}
	aged := d.now().Add(time.Duration(2-d.threshold) * d.interval)
	if st.lastPong.After(aged) {
		st.lastPong = aged
	}
	return true
}

// Tick performs one heartbeat round: ping every watched peer and report
// the ones whose last pong is older than threshold×interval. It returns
// the peers newly declared failed this round.
func (d *Detector) Tick() []simnet.NodeID {
	d.mu.Lock()
	now := d.now()
	deadline := time.Duration(d.threshold) * d.interval
	type probe struct {
		id      simnet.NodeID
		expired bool
	}
	probes := make([]probe, 0, len(d.peers))
	for id, st := range d.peers {
		expired := !st.suspected && now.Sub(st.lastPong) > deadline
		if expired {
			st.suspected = true
		}
		probes = append(probes, probe{id: id, expired: expired})
	}
	d.mu.Unlock()

	sort.Slice(probes, func(i, j int) bool { return probes[i].id < probes[j].id })
	var failed []simnet.NodeID
	for _, p := range probes {
		// Ping regardless of suspicion so a recovered peer re-arms.
		_ = d.transport.Send(d.self, p.id, KindPing, nil)
		if p.expired {
			failed = append(failed, p.id)
			if d.onFailure != nil {
				d.onFailure(p.id)
			}
		}
	}
	return failed
}

// Start runs the heartbeat loop until Stop. It is optional: simulations
// may drive Tick directly instead.
func (d *Detector) Start() {
	d.mu.Lock()
	if d.stop != nil {
		d.mu.Unlock()
		return
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	stop, done := d.stop, d.done
	d.mu.Unlock()
	go func() {
		defer close(done)
		ticker := time.NewTicker(d.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				d.Tick()
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the loop (idempotent) without deregistering the endpoint.
func (d *Detector) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop = nil
	d.done = nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Close stops the loop and deregisters the endpoint.
func (d *Detector) Close() error {
	d.Stop()
	return d.transport.Deregister(d.self)
}
