package coordinator

import (
	"sort"
	"sync"
	"testing"
	"time"

	"sspd/internal/simnet"
)

// testClock is a mutex-guarded fake clock shared between test goroutines
// and detector transport callbacks.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// hbPair wires two detectors on a fresh SimNet with a controllable clock.
func hbPair(t *testing.T) (*simnet.SimNet, *Detector, *Detector, *testClock, *sync.Mutex, *[]simnet.NodeID) {
	t.Helper()
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	clk := &testClock{now: time.Unix(1000, 0)}
	var mu sync.Mutex
	var failures []simnet.NodeID
	clock := clk.Now

	a, err := NewDetector(net, "a", time.Second, 3, func(id simnet.NodeID) {
		mu.Lock()
		failures = append(failures, id)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	a.SetClock(clock)
	b, err := NewDetector(net, "b", time.Second, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.SetClock(clock)
	return net, a, b, clk, &mu, &failures
}

func TestDetectorConstruction(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	if _, err := NewDetector(nil, "a", time.Second, 3, nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewDetector(net, "a", 0, 3, nil); err == nil {
		t.Error("zero interval accepted")
	}
	d, err := NewDetector(net, "a", time.Second, 0, nil) // threshold defaults
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDetectorHealthyPeerNeverSuspected(t *testing.T) {
	net, a, _, clk, mu, failures := hbPair(t)
	a.Watch("b")
	if got := a.Watched(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("watched = %v", got)
	}
	for i := 0; i < 10; i++ {
		a.Tick()
		if !net.Quiesce(time.Second) {
			t.Fatal("quiesce")
		}
		clk.Advance(time.Second)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*failures) != 0 {
		t.Fatalf("healthy peer failed: %v", *failures)
	}
	if a.Suspected("b") {
		t.Error("healthy peer suspected")
	}
}

func TestDetectorDetectsDeadPeer(t *testing.T) {
	net, a, _, clk, mu, failures := hbPair(t)
	a.Watch("b")
	a.Tick()
	net.Quiesce(time.Second)
	// b dies.
	if err := net.Deregister("b"); err != nil {
		t.Fatal(err)
	}
	// Three missed intervals -> failure on the 4th tick.
	for i := 0; i < 4; i++ {
		clk.Advance(time.Second)
		a.Tick()
	}
	mu.Lock()
	got := len(*failures)
	mu.Unlock()
	if got != 1 {
		t.Fatalf("failures = %d, want exactly 1", got)
	}
	if !a.Suspected("b") {
		t.Error("dead peer not suspected")
	}
	// Further ticks do not re-report the same episode.
	clk.Advance(10 * time.Second)
	a.Tick()
	mu.Lock()
	defer mu.Unlock()
	if len(*failures) != 1 {
		t.Fatalf("failure re-reported: %v", *failures)
	}
}

func TestDetectorRecovery(t *testing.T) {
	net, a, b, clk, mu, failures := hbPair(t)
	a.Watch("b")
	// b dies and is detected.
	if err := net.Deregister("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		clk.Advance(time.Second)
		a.Tick()
	}
	if !a.Suspected("b") {
		t.Fatal("not suspected")
	}
	// b comes back (same handler re-registered).
	if err := net.Register("b", func(m simnet.Message) {
		if m.Kind == KindPing {
			_ = net.Send("b", m.From, KindPong, nil)
		}
	}); err != nil {
		t.Fatal(err)
	}
	a.Tick() // ping reaches the revived b
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if a.Suspected("b") {
		t.Error("pong did not clear suspicion")
	}
	// A second death is reported again (new episode).
	if err := net.Deregister("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		clk.Advance(time.Second)
		a.Tick()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*failures) != 2 {
		t.Fatalf("failures = %v, want 2 episodes", *failures)
	}
	_ = b
}

func TestDetectorUnwatch(t *testing.T) {
	net, a, _, clk, mu, failures := hbPair(t)
	a.Watch("b")
	a.Unwatch("b")
	if err := net.Deregister("b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		clk.Advance(time.Second)
		a.Tick()
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*failures) != 0 {
		t.Fatalf("unwatched peer reported: %v", *failures)
	}
	if a.Suspected("b") {
		t.Error("unwatched peer suspected")
	}
}

func TestDetectorStartStop(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	var mu sync.Mutex
	failed := 0
	a, err := NewDetector(net, "a", 5*time.Millisecond, 2, func(simnet.NodeID) {
		mu.Lock()
		failed++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Watch("ghost") // never registered; pings fail silently
	a.Start()
	a.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		f := failed
		mu.Unlock()
		if f >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ticker loop never detected the ghost")
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.Stop()
	a.Stop() // idempotent
}

func TestDetectorPairMutualWatch(t *testing.T) {
	net, a, b, clk, _, _ := hbPair(t)
	a.Watch("b")
	b.Watch("a")
	for i := 0; i < 6; i++ {
		a.Tick()
		b.Tick()
		net.Quiesce(time.Second)
		clk.Advance(time.Second)
	}
	if a.Suspected("b") || b.Suspected("a") {
		t.Error("mutual watch produced false suspicion")
	}
}

// Watched returns the monitored peers, sorted.
func (d *Detector) Watched() []simnet.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]simnet.NodeID, 0, len(d.peers))
	for p := range d.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Suspected reports whether a peer is currently considered failed.
func (d *Detector) Suspected(peer simnet.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.peers[peer]
	return ok && st.suspected
}
