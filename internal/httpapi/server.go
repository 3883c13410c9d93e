// Package httpapi exposes a federation as a JSON-over-HTTP portal — the
// "central access portal to all the clients" of the paper's vision, on
// the transport clients actually speak. It is a thin layer: queries
// arrive as sspdql text, are parsed and submitted through the normal
// coordinator-tree path, and recent results are buffered per query for
// polling.
//
//	POST   /queries          {"id": "...", "query": "FROM quotes ..."}
//	GET    /queries           list active queries
//	GET    /queries/{id}      one query's detail + buffered results
//	DELETE /queries/{id}      withdraw
//	POST   /queries/{id}/migrate  {"entity": "e01"}
//	POST   /rebalance         run a hybrid rebalance
//	GET    /entities          entity list with loads and charges
//	GET    /stats             federation-level statistics
//	GET    /routing           Adaptation Module routing table (candidate delays)
//	GET    /metrics           Prometheus text exposition (federation registry)
//	GET    /traces            recent trace spans (tracing must be enabled)
//	GET    /traces/{id}       one span's hop-by-hop journey
//	GET    /cluster           live ops view (HTML)
//	GET    /cluster/metrics   merged cluster digest (stats plane must be enabled)
//	GET    /cluster/health    per-entity health from digest freshness
//	GET    /cluster/latency   latency attribution: waterfalls, measured PR, SLOs
//	GET    /cluster/engine    shard telemetry + backpressure state (engine plane)
//	GET    /profiles          continuous-profiling capture ring
//	GET    /profiles/{name}   one stored pprof capture
//	GET    /events            structured event journal (?since=&kind=)
//	GET    /debug/pprof/      Go runtime profiling
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"sspd/internal/core"
	"sspd/internal/simnet"
	"sspd/internal/sspdql"
	"sspd/internal/stream"
	"sspd/internal/trace"
)

// resultBuffer keeps the most recent results of one query.
type resultBuffer struct {
	mu    sync.Mutex
	buf   []resultRow
	next  int
	total int64
	subs  []chan resultRow
}

type resultRow struct {
	Seq    uint64    `json:"seq"`
	Ts     time.Time `json:"ts"`
	Values []string  `json:"values"`
}

// subscribe attaches a live listener; rows are dropped for slow
// listeners rather than blocking the result path.
func (b *resultBuffer) subscribe() chan resultRow {
	ch := make(chan resultRow, 64)
	b.mu.Lock()
	b.subs = append(b.subs, ch)
	b.mu.Unlock()
	return ch
}

func (b *resultBuffer) unsubscribe(ch chan resultRow) {
	b.mu.Lock()
	for i, c := range b.subs {
		if c == ch {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
}

const resultBufferCap = 64

func (b *resultBuffer) add(t stream.Tuple) {
	// Free for untraced tuples (Span == 0 fast path).
	trace.Record(trace.SpanID(t.Span), trace.StagePortal, "portal")
	row := resultRow{Seq: t.Seq, Ts: t.Ts}
	for _, v := range t.Values {
		row.Values = append(row.Values, v.String())
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.total++
	for _, ch := range b.subs {
		select {
		case ch <- row:
		default: // slow listener: drop rather than block results
		}
	}
	if len(b.buf) < resultBufferCap {
		b.buf = append(b.buf, row)
		return
	}
	b.buf[b.next] = row
	b.next = (b.next + 1) % resultBufferCap
}

// snapshot returns the buffered rows oldest-first and the total count.
func (b *resultBuffer) snapshot() ([]resultRow, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]resultRow, 0, len(b.buf))
	if len(b.buf) < resultBufferCap {
		out = append(out, b.buf...)
	} else {
		out = append(out, b.buf[b.next:]...)
		out = append(out, b.buf[:b.next]...)
	}
	return out, b.total
}

// Server is the HTTP portal.
type Server struct {
	fed *core.Federation
	// origin is the coordinate clients are assumed to submit from (a
	// richer deployment would geolocate per request).
	origin simnet.Point

	mu      sync.Mutex
	nextID  int
	results map[string]*resultBuffer
	texts   map[string]string
}

// New wraps a started federation.
func New(fed *core.Federation, origin simnet.Point) (*Server, error) {
	if fed == nil {
		return nil, fmt.Errorf("httpapi: nil federation")
	}
	return &Server{
		fed:     fed,
		origin:  origin,
		results: make(map[string]*resultBuffer),
		texts:   make(map[string]string),
	}, nil
}

// Handler returns the portal's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /queries", s.postQuery)
	mux.HandleFunc("GET /queries", s.listQueries)
	mux.HandleFunc("GET /queries/{id}", s.getQuery)
	mux.HandleFunc("GET /queries/{id}/stream", s.streamQuery)
	mux.HandleFunc("DELETE /queries/{id}", s.deleteQuery)
	mux.HandleFunc("POST /queries/{id}/migrate", s.migrateQuery)
	mux.HandleFunc("POST /rebalance", s.rebalance)
	mux.HandleFunc("GET /entities", s.listEntities)
	mux.HandleFunc("GET /stats", s.stats)
	mux.HandleFunc("GET /routing", s.routing)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /traces", s.listTraces)
	mux.HandleFunc("GET /traces/{id}", s.getTrace)
	mux.HandleFunc("GET /cluster", s.clusterPage)
	mux.HandleFunc("GET /cluster/metrics", s.clusterMetrics)
	mux.HandleFunc("GET /cluster/health", s.clusterHealth)
	mux.HandleFunc("GET /cluster/latency", s.clusterLatency)
	mux.HandleFunc("GET /cluster/engine", s.clusterEngine)
	mux.HandleFunc("GET /profiles", s.listProfiles)
	mux.HandleFunc("GET /profiles/{name}", s.getProfile)
	mux.HandleFunc("GET /events", s.events)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// metrics serves the federation registry in Prometheus text format.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.fed.MetricsRegistry().WritePrometheus(w)
}

// listTraces returns the most recent trace spans, newest first.
func (s *Server) listTraces(w http.ResponseWriter, r *http.Request) {
	tr := s.fed.Tracer()
	if tr == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: tracing not enabled"))
		return
	}
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad n %q: must be a positive integer", q))
			return
		}
		n = v
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sample_every": tr.SampleEvery(),
		"buffered":     tr.Len(),
		"spans":        tr.Recent(n),
	})
}

// getTrace returns one span's hop-by-hop journey.
func (s *Server) getTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.fed.Tracer()
	if tr == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: tracing not enabled"))
		return
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad span id %q", r.PathValue("id")))
		return
	}
	span, ok := tr.Get(trace.SpanID(id))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: span %d not buffered (evicted or never sampled)", id))
		return
	}
	writeJSON(w, http.StatusOK, span)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

type postQueryRequest struct {
	// ID is optional; the portal assigns q### when absent.
	ID string `json:"id"`
	// Query is sspdql text.
	Query string `json:"query"`
}

type queryInfo struct {
	ID      string `json:"id"`
	Query   string `json:"query"`
	Entity  string `json:"entity"`
	Results int64  `json:"results"`
}

func (s *Server) postQuery(w http.ResponseWriter, r *http.Request) {
	var req postQueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad request body: %w", err))
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: empty query"))
		return
	}
	id := req.ID
	if id == "" {
		// Auto-assign the next ID not already known to the federation
		// (queries may also arrive through other portals or consoles).
		s.mu.Lock()
		for {
			s.nextID++
			id = fmt.Sprintf("q%03d", s.nextID)
			if _, taken := s.fed.QueryEntity(id); !taken {
				break
			}
		}
		s.mu.Unlock()
	}
	spec, err := sspdql.Parse(id, req.Query)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	buf := &resultBuffer{}
	entity, err := s.fed.SubmitQuery(spec, s.origin, buf.add)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.mu.Lock()
	s.results[id] = buf
	s.texts[id] = sspdql.Format(spec)
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, queryInfo{
		ID: id, Query: sspdql.Format(spec), Entity: entity,
	})
}

func (s *Server) listQueries(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.results))
	for id := range s.results {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	out := make([]queryInfo, 0, len(ids))
	for _, id := range ids {
		if info, ok := s.infoFor(id); ok {
			out = append(out, info)
		}
	}
	// Deterministic order for clients and tests.
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j].ID < out[i].ID {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) infoFor(id string) (queryInfo, bool) {
	entity, ok := s.fed.QueryEntity(id)
	if !ok {
		return queryInfo{}, false
	}
	s.mu.Lock()
	buf := s.results[id]
	text := s.texts[id]
	s.mu.Unlock()
	info := queryInfo{ID: id, Query: text, Entity: entity}
	if buf != nil {
		_, info.Results = buf.snapshot()
	}
	return info, true
}

func (s *Server) getQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.infoFor(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: unknown query %q", id))
		return
	}
	s.mu.Lock()
	buf := s.results[id]
	s.mu.Unlock()
	var rows []resultRow
	if buf != nil {
		rows, _ = buf.snapshot()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"query":   info,
		"recent":  rows,
		"charged": s.fed.Ledger().Charge(info.Entity).Seconds(),
	})
}

// streamQuery serves results as server-sent events: one `data:` line of
// JSON per result tuple, until the client disconnects or the query is
// withdrawn.
func (s *Server) streamQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	buf := s.results[id]
	s.mu.Unlock()
	if buf == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: unknown query %q", id))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotImplemented, fmt.Errorf("httpapi: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch := buf.subscribe()
	defer buf.unsubscribe(ch)
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	enc := json.NewEncoder(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case row := <-ch:
			if _, err := fmt.Fprint(w, "data: "); err != nil {
				return
			}
			if err := enc.Encode(row); err != nil {
				return
			}
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return
			}
			flusher.Flush()
			// The query may have been withdrawn mid-stream.
			if _, alive := s.fed.QueryEntity(id); !alive {
				return
			}
		}
	}
}

func (s *Server) deleteQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.fed.RemoveQuery(id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.mu.Lock()
	delete(s.results, id)
	delete(s.texts, id)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) migrateQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req struct {
		Entity string `json:"entity"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Entity == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: body needs {\"entity\": ...}"))
		return
	}
	if err := s.fed.MigrateQuery(id, req.Entity); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"query": id, "entity": req.Entity})
}

func (s *Server) rebalance(w http.ResponseWriter, _ *http.Request) {
	moved, err := s.fed.Rebalance()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"migrated": moved})
}

type entityInfo struct {
	ID             string  `json:"id"`
	Load           float64 `json:"load"`
	ChargedSeconds float64 `json:"charged_seconds"`
}

func (s *Server) listEntities(w http.ResponseWriter, _ *http.Request) {
	out := make([]entityInfo, 0)
	for _, id := range s.fed.EntityIDs() {
		out = append(out, entityInfo{
			ID:             id,
			Load:           s.fed.EntityLoad(id),
			ChargedSeconds: s.fed.Ledger().Charge(id).Seconds(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) stats(w http.ResponseWriter, _ *http.Request) {
	g := s.fed.QueryGraph()
	assign, _ := s.fed.Assignment()
	writeJSON(w, http.StatusOK, map[string]any{
		"entities":   len(s.fed.EntityIDs()),
		"queries":    s.fed.NumQueries(),
		"edge_cut":   g.EdgeCut(assign),
		"active_acc": s.fed.Ledger().ActiveQueries(),
	})
}

// routing serves the Adaptation Module's live routing table: every
// routed fragment boundary's candidates with their smoothed observed
// delays and the current preferred pick. Empty when tuple routing is
// disabled.
func (s *Server) routing(w http.ResponseWriter, _ *http.Request) {
	routes := s.fed.AdaptationRoutes()
	if routes == nil {
		routes = []core.RouteStatus{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"routes": routes})
}
