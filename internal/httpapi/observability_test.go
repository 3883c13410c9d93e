package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/trace"
	"sspd/internal/workload"
)

func scrape(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

// TestMetricsEndpoint is the acceptance check: GET /metrics on a running
// portal serves valid Prometheus text including PR_max, per-query PR
// ratios, coordinator event counters, and relay byte meters.
func TestMetricsEndpoint(t *testing.T) {
	ts, fed, net := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/queries", map[string]string{
		"id": "q1", "query": "FROM quotes WHERE price < 500"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post query: %d", resp.StatusCode)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(10)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after publish")
	}

	body, resp := scrape(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE sspd_pr_max gauge",
		"sspd_pr_max ",
		`sspd_pr_ratio{query="q1"}`,
		"# TYPE sspd_coordinator_events_total counter",
		`sspd_coordinator_events_total{event="join"} 3`,
		`sspd_coordinator_events_total{event="split"}`,
		`sspd_relay_link_bytes_total{stream="quotes"}`,
		`sspd_relay_delivered_total{stream="quotes"}`,
		"sspd_entities 3",
		"sspd_queries 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Well-formed exposition: every non-comment line is "name{...} value"
	// and every family has a TYPE line before its samples.
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// The value follows the last space: label values (the watchdog
		// rules) may hold spaces.
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count"), "_total")
		if !typed[name] && !typed[base] && !typed[name+"_total"] && !typed[base+"_total"] {
			t.Errorf("sample %q has no TYPE header", name)
		}
	}
}

// TestMetricsScrapeWhileIngesting hammers /metrics while tuples flow —
// run under -race, this is the concurrent-scrape satellite.
func TestMetricsScrapeWhileIngesting(t *testing.T) {
	ts, fed, net := newTestServer(t)
	if resp, _ := postJSON(t, ts.URL+"/queries", map[string]string{
		"id": "q1", "query": "FROM quotes WHERE price < 900"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post query: %d", resp.StatusCode)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := workload.NewTicker(1, 100, 1.2)
		for {
			select {
			case <-stop:
				return
			default:
				_ = fed.Publish("quotes", tick.Batch(5))
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				body, resp := scrape(t, ts.URL+"/metrics")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("scrape %d: status %d", i, resp.StatusCode)
					return
				}
				if !strings.Contains(body, "sspd_pr_max") {
					t.Errorf("scrape %d missing sspd_pr_max", i)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestScrapePlaceMigrateIngestStress is the lock-order rule's test
// (entity.go): /metrics scrapes, query placement and removal, live
// migration and ingest all run at once, on each engine, and every
// goroutine must come back — also when Federation.Close lands in the
// middle of them. A cycle between Entity.mu and an engine, or a control
// call left waiting for a stopped shard, shows up as a hang (the package
// timeout), a missed lock as a -race report.
func TestScrapePlaceMigrateIngestStress(t *testing.T) {
	engines := map[string]entity.EngineFactory{
		"production": nil,
		"mini": func(name string, c *stream.Catalog) engine.Processor {
			return engine.NewMini(name, c)
		},
	}
	for name, factory := range engines {
		t.Run(name, func(t *testing.T) {
			ts, fed, net := newTestServerWith(t, factory)
			if resp, _ := postJSON(t, ts.URL+"/queries", map[string]string{
				"id": "q1", "query": "FROM quotes WHERE price < 900"}); resp.StatusCode != http.StatusCreated {
				t.Fatalf("post query: %d", resp.StatusCode)
			}
			if !net.Quiesce(2 * time.Second) {
				t.Fatal("quiesce after submit")
			}

			var wg sync.WaitGroup
			var closing atomic.Bool // calls may fail from here on
			stop := make(chan struct{})
			loop := func(body func(i int)) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
							body(i)
						}
					}
				}()
			}
			tick := workload.NewTicker(1, 100, 1.2)
			loop(func(int) { _ = fed.Publish("quotes", tick.Batch(5)) })
			for g := 0; g < 2; g++ {
				loop(func(i int) {
					resp, err := http.Get(ts.URL + "/metrics")
					if err != nil {
						t.Error(err)
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if closing.Load() {
						return
					}
					if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "sspd_pr_max") {
						t.Errorf("scrape %d: status %d, err %v", i, resp.StatusCode, err)
					}
				})
			}
			loop(func(i int) {
				id := fmt.Sprintf("churn%d", i)
				spec := engine.QuerySpec{ID: id, Source: "quotes",
					Filters: []engine.FilterSpec{{Field: "price", Lo: 0, Hi: 500}}}
				if _, err := fed.SubmitQuery(spec, simnet.Point{X: 25}, nil); err != nil {
					if !closing.Load() {
						t.Errorf("place %s: %v", id, err)
					}
					return
				}
				if err := fed.RemoveQuery(id); err != nil && !closing.Load() {
					t.Errorf("remove %s: %v", id, err)
				}
			})
			ids := fed.EntityIDs()
			var moved atomic.Int64
			loop(func(i int) {
				// Round-robin over the entities; a hop onto the current
				// host is refused, which is fine.
				if fed.MigrateQuery("q1", ids[i%len(ids)]) == nil {
					moved.Add(1)
				}
			})
			time.Sleep(150 * time.Millisecond)
			if moved.Load() == 0 {
				t.Error("no migration completed while the other loops ran")
			}
			closing.Store(true)
			fed.Close()
			time.Sleep(20 * time.Millisecond)
			close(stop)
			wg.Wait()
		})
	}
}

// TestTracesEndpoint drives a traced tuple end to end and reads its span
// back through the portal, including the portal hop itself.
func TestTracesEndpoint(t *testing.T) {
	ts, fed, net := newTestServer(t)
	// No tracer yet: both endpoints 404.
	if _, resp := scrape(t, ts.URL+"/traces"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /traces without tracer: %d", resp.StatusCode)
	}
	if _, resp := scrape(t, ts.URL+"/traces/1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /traces/1 without tracer: %d", resp.StatusCode)
	}
	if _, err := fed.EnableTracing(1); err != nil {
		t.Fatal(err)
	}
	defer trace.SetActive(nil)

	if resp, _ := postJSON(t, ts.URL+"/queries", map[string]string{
		"id": "q1", "query": "FROM quotes WHERE price < 1000"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("post query: %d", resp.StatusCode)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(3)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after publish")
	}

	var list struct {
		SampleEvery int          `json:"sample_every"`
		Buffered    int          `json:"buffered"`
		Spans       []trace.Span `json:"spans"`
	}
	if resp := getJSON(t, ts.URL+"/traces", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces: %d", resp.StatusCode)
	}
	if list.SampleEvery != 1 || list.Buffered != 3 || len(list.Spans) != 3 {
		t.Fatalf("traces list = every:%d buffered:%d spans:%d",
			list.SampleEvery, list.Buffered, len(list.Spans))
	}
	var span trace.Span
	if resp := getJSON(t, fmt.Sprintf("%s/traces/%d", ts.URL, list.Spans[0].ID), &span); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces/{id}: %d", resp.StatusCode)
	}
	stages := map[string]bool{}
	for _, h := range span.Hops {
		stages[h.Stage] = true
	}
	for _, want := range []string{trace.StagePublish, trace.StageRelay, trace.StageDeliver,
		trace.StageDelegate, trace.StageOperator, trace.StageResult, trace.StagePortal} {
		if !stages[want] {
			t.Fatalf("span missing stage %q: %+v", want, span.Hops)
		}
	}
	// Bad and unknown IDs.
	if _, resp := scrape(t, ts.URL+"/traces/notanumber"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad span id: %d", resp.StatusCode)
	}
	if _, resp := scrape(t, ts.URL+"/traces/99999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown span id: %d", resp.StatusCode)
	}
}

// TestPprofEndpoint checks the profiling index is mounted.
func TestPprofEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t)
	body, resp := scrape(t, ts.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %d", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Error("pprof index missing goroutine profile link")
	}
}
