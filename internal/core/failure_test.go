package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sspd/internal/coordinator"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

func TestFailEntityReplacesQueries(t *testing.T) {
	fed, net := newTestFederation(t, 3)
	var mu sync.Mutex
	results := map[string]int{}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("q%d", i)
		qid := id
		if err := fed.SubmitQueryTo(priceQuery(id, 0, 1000), "e01",
			func(stream.Tuple) { mu.Lock(); results[qid]++; mu.Unlock() }); err != nil {
			t.Fatal(err)
		}
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	// e01 crashes: no cooperation, queries rebuilt from specs.
	replaced, err := fed.FailEntity("e01")
	if err != nil {
		t.Fatal(err)
	}
	if replaced != 3 {
		t.Fatalf("replaced = %d, want 3", replaced)
	}
	if _, err := fed.FailEntity("e01"); err == nil {
		t.Error("double fail accepted")
	}
	for i := 0; i < 3; i++ {
		host, ok := fed.QueryEntity(fmt.Sprintf("q%d", i))
		if !ok || host == "e01" {
			t.Fatalf("q%d on %s/%v after failure", i, host, ok)
		}
	}
	if err := fed.DisseminationTree("quotes").Validate(); err != nil {
		t.Fatal(err)
	}
	// Result callbacks survive the re-placement.
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	tick := workload.NewTicker(8, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(10)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 3; i++ {
		if got := results[fmt.Sprintf("q%d", i)]; got != 10 {
			t.Errorf("q%d results after failure = %d, want 10", i, got)
		}
	}
}

func TestFailLastEntityRefused(t *testing.T) {
	fed, _ := newTestFederation(t, 2)
	if _, err := fed.FailEntity("e00"); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.FailEntity("e01"); err == nil {
		t.Error("expelling the last entity accepted")
	}
}

func TestFailureDetectionExpelsDeadEntity(t *testing.T) {
	fed, net := newTestFederation(t, 3)
	if err := fed.EnableFailureDetection(20*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableFailureDetection(time.Second, 2); err == nil {
		t.Error("double enable accepted")
	}
	if fed.Monitor() == nil {
		t.Fatal("monitor missing")
	}
	if err := fed.SubmitQueryTo(priceQuery("q1", 0, 1000), "e02", nil); err != nil {
		t.Fatal(err)
	}
	// Kill e02's heartbeat responder out-of-band (simulating a crash of
	// the whole entity process).
	if err := net.Deregister(hbID("e02")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(fed.EntityIDs()) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead entity not expelled; entities = %v", fed.EntityIDs())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The orphaned query was re-placed.
	deadline = time.Now().Add(2 * time.Second)
	for {
		if host, ok := fed.QueryEntity("q1"); ok && host != "e02" {
			break
		}
		if time.Now().After(deadline) {
			host, ok := fed.QueryEntity("q1")
			t.Fatalf("q1 not re-placed: %s/%v", host, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchNewEntities: an entity that joins a running federation after
// failure detection was enabled is watched like the others, so its crash
// is confirmed by the detector and it is expelled.
func TestWatchNewEntities(t *testing.T) {
	fed, net := newTestFederation(t, 2)
	if err := fed.EnableFailureDetection(time.Hour, 3); err != nil {
		t.Fatal(err)
	}
	// The detector's own loop ticks hourly; the test drives Tick on a
	// clock it advances.
	var mu sync.Mutex
	now := time.Now()
	fed.Monitor().SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })
	if err := fed.JoinEntity("late", simnet.Point{X: 99}, 1, miniFactory); err != nil {
		t.Fatal(err)
	}
	if err := fed.KillEntity("late"); err != nil {
		t.Fatal(err)
	}
	// Four hourly rounds pass the 3-interval threshold for the silent
	// joiner, while the live entities' pongs keep them fresh.
	for round := 0; round < 4; round++ {
		mu.Lock()
		now = now.Add(time.Hour)
		mu.Unlock()
		fed.Monitor().Tick()
		net.Quiesce(2 * time.Second)
	}
	deadline := time.Now().Add(5 * time.Second)
	for slices.Contains(fed.EntityIDs(), "late") {
		if time.Now().After(deadline) {
			t.Fatalf("crashed joiner not expelled; entities = %v", fed.EntityIDs())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := fed.EntityIDs(); len(got) != 2 {
		t.Fatalf("entities = %v, want the two live founders", got)
	}
	var confirm, fail uint64
	for _, e := range fed.Journal().Since(0, "") {
		if e.Node != "late" {
			continue
		}
		switch e.Kind {
		case "detector.confirm":
			confirm = e.Seq
		case "entity.fail":
			fail = e.Seq
		}
	}
	if confirm == 0 || fail <= confirm {
		t.Fatalf("journal chain detector.confirm (seq %d) -> entity.fail (seq %d) missing for late", confirm, fail)
	}
}

// Monitor exposes the failure detector (nil when disabled); tests drive
// its Tick directly for determinism.
func (f *Federation) Monitor() *coordinator.Detector {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.monitor
}
