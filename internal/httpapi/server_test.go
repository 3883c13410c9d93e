package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sspd/internal/core"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

func newTestServer(t *testing.T) (*httptest.Server, *core.Federation, *simnet.SimNet) {
	t.Helper()
	return newTestServerWith(t, func(name string, c *stream.Catalog) engine.Processor {
		return engine.NewMini(name, c)
	})
}

// newTestServerWith builds the three-entity test federation on the
// given engine; a nil factory means the production engine.
func newTestServerWith(t *testing.T, factory entity.EngineFactory) (*httptest.Server, *core.Federation, *simnet.SimNet) {
	t.Helper()
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	catalog := workload.Catalog(100, 20)
	fed, err := core.New(net, catalog, core.Options{Fanout: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	if err := fed.AddSource("quotes", simnet.Point{},
		core.StreamRate{TuplesPerSec: 100, BytesPerTuple: 60}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fed.AddEntity(fmt.Sprintf("e%02d", i),
			simnet.Point{X: float64(10 + i*20)}, 2, factory); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	// Manual-tick stats plane: cluster endpoints work, no background
	// goroutines to leak into unrelated tests.
	if err := fed.EnableStatsPlane(0); err != nil {
		t.Fatal(err)
	}
	srv, err := New(fed, simnet.Point{X: 25})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, fed, net
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

func TestNewRequiresFederation(t *testing.T) {
	if _, err := New(nil, simnet.Point{}); err == nil {
		t.Fatal("nil federation accepted")
	}
}

func TestPostQueryAndResults(t *testing.T) {
	ts, fed, net := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/queries", postQueryRequest{
		Query: "FROM quotes WHERE price <= 1000",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d body=%v", resp.StatusCode, body)
	}
	id, _ := body["id"].(string)
	if id == "" || body["entity"] == "" {
		t.Fatalf("body = %v", body)
	}
	net.Quiesce(2 * time.Second)

	tick := workload.NewTicker(1, 100, 1.3)
	if err := fed.Publish("quotes", tick.Batch(10)); err != nil {
		t.Fatal(err)
	}
	net.Quiesce(2 * time.Second)
	time.Sleep(20 * time.Millisecond)

	var detail struct {
		Query  queryInfo   `json:"query"`
		Recent []resultRow `json:"recent"`
	}
	if resp := getJSON(t, ts.URL+"/queries/"+id, &detail); resp.StatusCode != 200 {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	if detail.Query.Results != 10 || len(detail.Recent) != 10 {
		t.Fatalf("results = %d recent = %d, want 10/10", detail.Query.Results, len(detail.Recent))
	}
	if len(detail.Recent[0].Values) == 0 {
		t.Fatal("result row has no values")
	}
}

func TestPostQueryErrors(t *testing.T) {
	ts, _, _ := newTestServer(t)
	if resp, _ := postJSON(t, ts.URL+"/queries", postQueryRequest{Query: ""}); resp.StatusCode != 400 {
		t.Errorf("empty query status = %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/queries", postQueryRequest{Query: "GARBAGE"}); resp.StatusCode != 422 {
		t.Errorf("parse error status = %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/queries", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad json status = %d", resp.StatusCode)
	}
	// Duplicate explicit ID conflicts.
	if resp, _ := postJSON(t, ts.URL+"/queries", postQueryRequest{ID: "dup", Query: "FROM quotes"}); resp.StatusCode != 201 {
		t.Fatalf("first dup status = %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/queries", postQueryRequest{ID: "dup", Query: "FROM quotes"}); resp.StatusCode != 409 {
		t.Errorf("duplicate status = %d", resp.StatusCode)
	}
}

func TestListAndDeleteQueries(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for i := 0; i < 3; i++ {
		if resp, _ := postJSON(t, ts.URL+"/queries", postQueryRequest{
			Query: "FROM quotes WHERE price <= 500",
		}); resp.StatusCode != 201 {
			t.Fatal("post failed")
		}
	}
	var list []queryInfo
	getJSON(t, ts.URL+"/queries", &list)
	if len(list) != 3 {
		t.Fatalf("list = %d", len(list))
	}
	if list[0].ID > list[1].ID {
		t.Error("list not sorted")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/queries/"+list[0].ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	var after []queryInfo
	getJSON(t, ts.URL+"/queries", &after)
	if len(after) != 2 {
		t.Fatalf("after delete = %d", len(after))
	}
	// Deleting again 404s.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/queries/"+list[0].ID, nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("double delete status = %d", resp.StatusCode)
	}
	var missing map[string]any
	if resp := getJSON(t, ts.URL+"/queries/nope", &missing); resp.StatusCode != 404 {
		t.Errorf("missing query status = %d", resp.StatusCode)
	}
}

func TestMigrateEndpoint(t *testing.T) {
	ts, fed, _ := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/queries", postQueryRequest{ID: "m1", Query: "FROM quotes"})
	from, _ := body["entity"].(string)
	target := ""
	for _, id := range fed.EntityIDs() {
		if id != from {
			target = id
			break
		}
	}
	resp, _ := postJSON(t, ts.URL+"/queries/m1/migrate", map[string]string{"entity": target})
	if resp.StatusCode != 200 {
		t.Fatalf("migrate status = %d", resp.StatusCode)
	}
	if got, _ := fed.QueryEntity("m1"); got != target {
		t.Fatalf("query on %s, want %s", got, target)
	}
	if resp, _ := postJSON(t, ts.URL+"/queries/m1/migrate", map[string]string{}); resp.StatusCode != 400 {
		t.Errorf("empty target status = %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/queries/m1/migrate", map[string]string{"entity": "zz"}); resp.StatusCode != 409 {
		t.Errorf("bad target status = %d", resp.StatusCode)
	}
}

func TestEntitiesStatsAndRebalance(t *testing.T) {
	ts, _, _ := newTestServer(t)
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/queries", postQueryRequest{
			Query: "FROM quotes WHERE symbol IN ('S0001','S0002')",
		})
	}
	var entities []entityInfo
	getJSON(t, ts.URL+"/entities", &entities)
	if len(entities) != 3 {
		t.Fatalf("entities = %d", len(entities))
	}
	var stats map[string]any
	getJSON(t, ts.URL+"/stats", &stats)
	if stats["queries"].(float64) != 4 {
		t.Fatalf("stats = %v", stats)
	}
	resp, body := postJSON(t, ts.URL+"/rebalance", struct{}{})
	if resp.StatusCode != 200 {
		t.Fatalf("rebalance status = %d body=%v", resp.StatusCode, body)
	}
}

func TestResultBufferRing(t *testing.T) {
	b := &resultBuffer{}
	for i := 0; i < resultBufferCap*2+5; i++ {
		b.add(stream.NewTuple("s", uint64(i), time.Unix(int64(i), 0), stream.Int(int64(i))))
	}
	rows, total := b.snapshot()
	if total != int64(resultBufferCap*2+5) {
		t.Fatalf("total = %d", total)
	}
	if len(rows) != resultBufferCap {
		t.Fatalf("rows = %d", len(rows))
	}
	// Oldest-first ordering.
	for i := 1; i < len(rows); i++ {
		if rows[i].Seq != rows[i-1].Seq+1 {
			t.Fatalf("ring order broken at %d: %d after %d", i, rows[i].Seq, rows[i-1].Seq)
		}
	}
	if rows[len(rows)-1].Seq != uint64(resultBufferCap*2+4) {
		t.Fatalf("newest = %d", rows[len(rows)-1].Seq)
	}
}

func TestStreamQuerySSE(t *testing.T) {
	ts, fed, net := newTestServer(t)
	_, body := postJSON(t, ts.URL+"/queries", postQueryRequest{ID: "sse", Query: "FROM quotes"})
	if body["id"] != "sse" {
		t.Fatalf("post body = %v", body)
	}
	net.Quiesce(2 * time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/queries/sse/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// Publish after the stream is attached.
	go func() {
		time.Sleep(100 * time.Millisecond)
		tick := workload.NewTicker(3, 100, 1.3)
		_ = fed.Publish("quotes", tick.Batch(5))
	}()

	scanner := bufio.NewScanner(resp.Body)
	events := 0
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "data: ") {
			var row resultRow
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &row); err != nil {
				t.Fatalf("bad event %q: %v", line, err)
			}
			if len(row.Values) == 0 {
				t.Fatalf("event without values: %q", line)
			}
			events++
			if events == 5 {
				cancel() // done reading
			}
		}
	}
	if events < 5 {
		t.Fatalf("received %d events, want 5", events)
	}
}

func TestStreamQueryNotFound(t *testing.T) {
	ts, _, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/queries/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
