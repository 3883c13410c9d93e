package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("sspd_test_total", "help", L("q", "1"))
	b := r.Counter("sspd_test_total", "help", L("q", "1"))
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	c := r.Counter("sspd_test_total", "help", L("q", "2"))
	if a == c {
		t.Fatal("different labels must return distinct series")
	}
	a.Add(3)
	if c.Value() != 0 {
		t.Fatalf("series must be independent, got %d", c.Value())
	}
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name must panic")
		}
	}()
	r.Counter("0bad name", "")
}

// TestWritePrometheusGolden locks the exposition format: family order,
// HELP/TYPE headers, label rendering and escaping, and collector gauges
// merged with the registry's counters.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("sspd_events_total", "Event count.", L("event", "join")).Add(4)
	r.Counter("sspd_events_total", "Event count.", L("event", "split")).Add(1)
	r.Counter("sspd_escape_total", "", L("v", `a"b\c`)).Inc()
	r.RegisterCollector(func(emit func(Sample)) {
		EmitGauge(emit, "sspd_queries", "Active queries.", 7)
		EmitGauge(emit, "sspd_pr_max", "Worst PR.", 2.5)
		EmitCounter(emit, "sspd_relay_bytes_total", "Relay link traffic.", 150, L("stream", "quotes"))
		emit(Sample{Name: "sspd_edge_cut", Help: "Edge cut.", Kind: KindGauge, Value: 12.5})
	})

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sspd_edge_cut Edge cut.
# TYPE sspd_edge_cut gauge
sspd_edge_cut 12.5
# TYPE sspd_escape_total counter
sspd_escape_total{v="a\"b\\c"} 1
# HELP sspd_events_total Event count.
# TYPE sspd_events_total counter
sspd_events_total{event="join"} 4
sspd_events_total{event="split"} 1
# HELP sspd_pr_max Worst PR.
# TYPE sspd_pr_max gauge
sspd_pr_max 2.5
# HELP sspd_queries Active queries.
# TYPE sspd_queries gauge
sspd_queries 7
# HELP sspd_relay_bytes_total Relay link traffic.
# TYPE sspd_relay_bytes_total counter
sspd_relay_bytes_total{stream="quotes"} 150
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRegistryConcurrent exercises create/record/scrape races under the
// race detector.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	r.Counter("sspd_h_total", "h").Inc()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := []string{"sspd_a_total", "sspd_b_total"}[g%2]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter(name, "h", L("w", string(rune('a'+i%3)))).Inc()
				r.Counter("sspd_h_total", "h").Inc()
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "# TYPE sspd_h_total counter") {
			t.Fatal("scrape missing a family")
		}
	}
	close(stop)
	wg.Wait()
}

// TestHistogramSnapshotConsistency detects torn snapshots: every sample
// is exactly 1.0, so any internally consistent snapshot has Mean == 1
// and Sum == float64(Count). The pre-fix implementation read count and
// sum under separate lock acquisitions and failed this under load.
func TestHistogramSnapshotConsistency(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.ObserveN(1.0, 1)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		if s.Count > 0 && s.Mean != 1.0 {
			t.Fatalf("torn snapshot: count=%d sum=%g mean=%g", s.Count, s.Sum, s.Mean)
		}
		if s.Sum != float64(s.Count) {
			t.Fatalf("torn snapshot: count=%d sum=%g", s.Count, s.Sum)
		}
	}
	close(stop)
	wg.Wait()
}
