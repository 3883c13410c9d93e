package trace

import (
	"sync"
	"testing"
)

func TestSamplingRate(t *testing.T) {
	tr := New(4, 64)
	sampled := 0
	for i := 0; i < 100; i++ {
		if tr.Sample("quotes", uint64(i), "src") != 0 {
			sampled++
		}
	}
	if sampled != 25 {
		t.Fatalf("1-in-4 sampling over 100 tuples: got %d spans, want 25", sampled)
	}
	if got := tr.Sampled.Value(); got != 25 {
		t.Fatalf("Sampled counter = %d, want 25", got)
	}
}

func TestDisabledTracerSamplesNothing(t *testing.T) {
	tr := New(0, 16)
	for i := 0; i < 10; i++ {
		if id := tr.Sample("quotes", uint64(i), "src"); id != 0 {
			t.Fatalf("disabled tracer returned span %d", id)
		}
	}
}

func TestRecordAndGet(t *testing.T) {
	tr := New(1, 16)
	id := tr.Sample("quotes", 7, "src:quotes")
	if id == 0 {
		t.Fatal("every=1 must sample")
	}
	tr.Record(id, StageRelay, "a:quotes")
	tr.Record(id, StageDeliver, "a:quotes")
	span, ok := tr.Get(id)
	if !ok {
		t.Fatal("span not found")
	}
	if span.Stream != "quotes" || span.Seq != 7 {
		t.Fatalf("span identity wrong: %+v", span)
	}
	stages := make([]string, 0, len(span.Hops))
	for _, h := range span.Hops {
		stages = append(stages, h.Stage)
	}
	want := []string{StagePublish, StageRelay, StageDeliver}
	if len(stages) != len(want) {
		t.Fatalf("hops = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("hop %d = %q, want %q", i, stages[i], want[i])
		}
	}
	for i := 1; i < len(span.Hops); i++ {
		if span.Hops[i].At.Before(span.Hops[i-1].At) {
			t.Fatal("hop timestamps must be monotonic")
		}
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(1, 4)
	var ids []SpanID
	for i := 0; i < 6; i++ {
		ids = append(ids, tr.Sample("s", uint64(i), "n"))
	}
	if tr.Len() != 4 {
		t.Fatalf("ring holds %d spans, want 4", tr.Len())
	}
	if _, ok := tr.Get(ids[0]); ok {
		t.Fatal("oldest span should have been evicted")
	}
	if _, ok := tr.Get(ids[5]); !ok {
		t.Fatal("newest span must be present")
	}
	if tr.Evicted.Value() != 2 {
		t.Fatalf("Evicted = %d, want 2", tr.Evicted.Value())
	}
	// Hops for evicted spans are counted, not recorded.
	tr.Record(ids[0], StageRelay, "n")
	if tr.DroppedHops.Value() != 1 {
		t.Fatalf("DroppedHops = %d, want 1", tr.DroppedHops.Value())
	}
	recent := tr.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("Recent returned %d spans, want 4", len(recent))
	}
	if recent[0].ID != ids[5] || recent[3].ID != ids[2] {
		t.Fatalf("Recent order wrong: first=%d last=%d", recent[0].ID, recent[3].ID)
	}
}

func TestGlobalRecordFastPath(t *testing.T) {
	SetActive(nil)
	Record(0, StageRelay, "n")  // id==0: no-op regardless of active
	Record(99, StageRelay, "n") // no active tracer: no-op
	tr := New(1, 8)
	SetActive(tr)
	defer SetActive(nil)
	id := tr.Sample("s", 1, "n")
	Record(id, StageRelay, "n")
	span, _ := tr.Get(id)
	if len(span.Hops) != 2 {
		t.Fatalf("global Record did not reach active tracer: %d hops", len(span.Hops))
	}
}

func TestConcurrentTracer(t *testing.T) {
	tr := New(1, 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := tr.Sample("s", uint64(i), "n")
				tr.Record(id, StageRelay, "r")
				tr.Record(id, StageDeliver, "d")
				tr.Get(id)
				if i%100 == 0 {
					tr.Recent(16)
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Sampled.Value() != 4000 {
		t.Fatalf("Sampled = %d, want 4000", tr.Sampled.Value())
	}
}

// BenchmarkRecordUntraced prices the only per-hop cost tracing adds when
// a tuple is not sampled: Record with span id 0 returns before touching
// any shared state.
func BenchmarkRecordUntraced(b *testing.B) {
	SetActive(nil)
	b.ReportAllocs()
	for b.Loop() {
		Record(0, StageRelay, "bench")
	}
}
