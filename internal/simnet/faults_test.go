package simnet

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"sspd/internal/metrics"
)

// chaosRig registers two counting endpoints on a SimNet wrapped by a
// FaultPlan.
type chaosRig struct {
	net  *SimNet
	plan *FaultPlan
	mu   sync.Mutex
	got  map[NodeID][]Message
}

func newChaosRig(t *testing.T, seed int64) *chaosRig {
	t.Helper()
	r := &chaosRig{net: NewSim(nil), got: make(map[NodeID][]Message)}
	r.plan = NewFaultPlan(r.net, seed)
	t.Cleanup(func() { r.plan.Close() })
	for _, id := range []NodeID{"a", "b"} {
		id := id
		if err := r.plan.Register(id, func(m Message) {
			m.Payload = bytes.Clone(m.Payload) // lent for the call
			r.mu.Lock()
			r.got[id] = append(r.got[id], m)
			r.mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *chaosRig) received(id NodeID) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got[id])
}

func TestFaultPlanPassThroughByDefault(t *testing.T) {
	r := newChaosRig(t, 1)
	for i := 0; i < 50; i++ {
		if err := r.plan.Send("a", "b", "k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !r.plan.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if got := r.received("b"); got != 50 {
		t.Fatalf("delivered %d, want 50", got)
	}
	for _, k := range faultKinds {
		if n := r.plan.Injected(k); n != 0 {
			t.Errorf("injected %s = %d with no rules", k, n)
		}
	}
}

func TestFaultPlanDropIsSeededAndCounted(t *testing.T) {
	const sends = 1000
	run := func(seed int64) (int, int64) {
		r := newChaosRig(t, seed)
		r.plan.SetLinkFaults("a", "b", LinkFaults{Drop: 0.2})
		for i := 0; i < sends; i++ {
			if err := r.plan.Send("a", "b", "k", nil); err != nil {
				t.Fatal(err)
			}
		}
		if !r.plan.Quiesce(time.Second) {
			t.Fatal("quiesce")
		}
		return r.received("b"), r.plan.Injected(FaultDrop)
	}
	got1, drops1 := run(42)
	got2, drops2 := run(42)
	if got1 != got2 || drops1 != drops2 {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d", got1, drops1, got2, drops2)
	}
	if got1+int(drops1) != sends {
		t.Fatalf("delivered %d + dropped %d != %d", got1, drops1, sends)
	}
	if drops1 < sends/10 || drops1 > 3*sends/10 {
		t.Fatalf("drop rate wildly off 20%%: %d/%d", drops1, sends)
	}
	got3, _ := run(7)
	if got3 == got1 {
		t.Log("different seeds delivered equal counts (possible but unlikely)")
	}
}

func TestFaultPlanDuplicate(t *testing.T) {
	r := newChaosRig(t, 3)
	r.plan.SetDefaultFaults(LinkFaults{Duplicate: 1})
	for i := 0; i < 10; i++ {
		if err := r.plan.Send("a", "b", "k", nil); err != nil {
			t.Fatal(err)
		}
	}
	if !r.plan.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if got := r.received("b"); got != 20 {
		t.Fatalf("delivered %d, want 20 (every message duplicated)", got)
	}
	if n := r.plan.Injected(FaultDuplicate); n != 10 {
		t.Fatalf("duplicate count = %d, want 10", n)
	}
}

func TestFaultPlanPartitionAndHeal(t *testing.T) {
	r := newChaosRig(t, 4)
	r.plan.Partition("a", "b")
	if err := r.plan.Send("a", "b", "k", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.plan.Send("b", "a", "k", nil); err != nil {
		t.Fatal(err)
	}
	if !r.plan.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if r.received("a")+r.received("b") != 0 {
		t.Fatal("partitioned link delivered")
	}
	if n := r.plan.Injected(FaultPartition); n != 2 {
		t.Fatalf("partition count = %d, want 2 (both directions)", n)
	}
	r.plan.Heal("a", "b")
	if err := r.plan.Send("a", "b", "k", nil); err != nil {
		t.Fatal(err)
	}
	if !r.plan.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if r.received("b") != 1 {
		t.Fatal("healed link still blocked")
	}
}

func TestFaultPlanBlackholeAndRestore(t *testing.T) {
	r := newChaosRig(t, 5)
	r.plan.Blackhole("b")
	_ = r.plan.Send("a", "b", "k", nil)
	_ = r.plan.Send("b", "a", "k", nil) // from a blackholed node: also lost
	if !r.plan.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if r.received("a")+r.received("b") != 0 {
		t.Fatal("blackholed node exchanged messages")
	}
	if n := r.plan.Injected(FaultBlackhole); n != 2 {
		t.Fatalf("blackhole count = %d, want 2", n)
	}
	r.plan.Restore("b")
	_ = r.plan.Send("a", "b", "k", nil)
	if !r.plan.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if r.received("b") != 1 {
		t.Fatal("restored node unreachable")
	}
}

func TestFaultPlanJitterAndReorderStillDeliver(t *testing.T) {
	r := newChaosRig(t, 6)
	r.plan.SetDefaultFaults(LinkFaults{Jitter: 2 * time.Millisecond, Reorder: 0.5, ReorderDelay: time.Millisecond})
	for i := 0; i < 40; i++ {
		if err := r.plan.Send("a", "b", "k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !r.plan.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	if got := r.received("b"); got != 40 {
		t.Fatalf("delivered %d, want 40 (jitter/reorder must not lose)", got)
	}
	if r.plan.Injected(FaultJitter) == 0 {
		t.Error("no jitter recorded")
	}
	if r.plan.Injected(FaultReorder) == 0 {
		t.Error("no reorders recorded")
	}
}

func TestFaultPlanRuntimeToggle(t *testing.T) {
	r := newChaosRig(t, 7)
	r.plan.SetDefaultFaults(LinkFaults{Drop: 1})
	_ = r.plan.Send("a", "b", "k", nil)
	r.plan.SetEnabled(false)
	_ = r.plan.Send("a", "b", "k", nil)
	if !r.plan.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if got := r.received("b"); got != 1 {
		t.Fatalf("delivered %d, want exactly the message sent while disabled", got)
	}
}

func TestFaultPlanMetricsRegistry(t *testing.T) {
	r := newChaosRig(t, 8)
	reg := metrics.NewRegistry()
	r.plan.SetRegistry(reg)
	r.plan.SetLinkFaults("a", "b", LinkFaults{Drop: 1})
	for i := 0; i < 5; i++ {
		_ = r.plan.Send("a", "b", "k", nil)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `sspd_faults_injected{kind="drop",link="a->b"} 5`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, sb.String())
	}
}

// Enabled reports whether fault injection is active.
func (p *FaultPlan) Enabled() bool { return p.enabled.Load() }

// Injected returns the total count of one fault kind.
func (p *FaultPlan) Injected(kind FaultKind) int64 {
	c, ok := p.counts[kind]
	if !ok {
		return 0
	}
	return c.Load()
}

// TestFaultPlanDelaysOverlap: a FaultPlan delay is a property of the
// link, not of the receiver, so 50 messages each held 10 ms arrive
// together, well under the 500 ms a serialized delay would take.
func TestFaultPlanDelaysOverlap(t *testing.T) {
	const msgs, hold = 50, 10 * time.Millisecond
	r := newChaosRig(t, 1)
	r.plan.SetLinkFaults("a", "b", LinkFaults{Reorder: 1, ReorderDelay: hold})
	start := time.Now()
	for i := 0; i < msgs; i++ {
		if err := r.plan.Send("a", "b", "k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for r.received("b") < msgs {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("delivered %d of %d", r.received("b"), msgs)
		}
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(start); took < hold || took > msgs*hold/2 {
		t.Errorf("%d messages held %v each all arrived after %v, want >= %v and well under %v",
			msgs, hold, took, hold, msgs*hold)
	}
}
