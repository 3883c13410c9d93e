package httpapi

// Cluster-wide observability endpoints (DESIGN.md §9). These read the
// stats federation's root digest and the structured event journal:
//
//	GET /cluster          live ops view (HTML)
//	GET /cluster/metrics  merged cluster digest, Prometheus text format
//	GET /cluster/health   per-entity health derived from digest freshness
//	GET /cluster/latency  latency attribution: stage waterfalls, measured
//	                      PR vs estimate, SLO watchdog verdicts
//	GET /cluster/engine   shard telemetry heatmap + backpressure state
//	GET /events           structured event journal, ?since=<seq>&kind=<k>

import (
	"fmt"
	"math"
	"net/http"
	"strconv"

	"sspd/internal/latency"
	"sspd/internal/obslog"
)

// clusterMetrics serves the root digest as sspd_cluster_* families.
func (s *Server) clusterMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := s.fed.ClusterRegistry()
	if reg == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: stats plane not enabled"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = reg.WritePrometheus(w)
}

// clusterHealth returns the merged digest joined against live
// membership: who is up, whose row is fresh, and the row detail the ops
// view renders (loads, query counts, PR_max sparklines).
func (s *Server) clusterHealth(w http.ResponseWriter, _ *http.Request) {
	if s.fed.ClusterRegistry() == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: stats plane not enabled"))
		return
	}
	rows, root, _ := s.fed.ClusterStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"root":        root,
		"entities":    s.fed.ClusterHealth(),
		"rows":        rows,
		"migrations":  s.fed.Migrations(),
		"recoveries":  s.fed.Recoveries(),
		"checkpoints": s.fed.Checkpoints(),
	})
}

// histSummary condenses a latency histogram for JSON clients. All
// values are seconds; the percentiles are log-bucket estimates (exact
// to within one bucket boundary, see latency.HistSnapshot.Quantile).
type histSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

func summarize(h latency.HistSnapshot) histSummary {
	return histSummary{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// clusterLatency answers the cluster-wide latency attribution view: the
// merged end-to-end distribution, the per-stage waterfall with each
// stage's share of total delay, per-query rows joining measured PR
// against the engine-estimated PR, and the SLO watchdog's verdicts.
func (s *Server) clusterLatency(w http.ResponseWriter, _ *http.Request) {
	att, ok := s.fed.ClusterLatency()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: latency attribution needs the stats plane and tracing"))
		return
	}

	var totalStage float64
	for _, hs := range att.Stages {
		totalStage += hs.Sum
	}
	stages := make(map[string]map[string]any, len(att.Stages))
	for st, hs := range att.Stages {
		share := 0.0
		if totalStage > 0 {
			share = hs.Sum / totalStage
		}
		row := summarize(hs)
		stages[st] = map[string]any{
			"count":        row.Count,
			"mean_seconds": row.Mean,
			"p50_seconds":  row.P50,
			"p95_seconds":  row.P95,
			"p99_seconds":  row.P99,
			"share":        share,
		}
	}

	queries := make([]map[string]any, 0, len(att.Queries))
	for _, q := range att.Queries {
		row := map[string]any{
			"query":       q.Query,
			"e2e":         summarize(q.E2E),
			"eval_mean":   q.EvalMean,
			"pr_measured": q.PRMeasured,
			"waterfall":   q.Stages,
		}
		if est, ok := s.fed.QueryPR(q.Query); ok {
			row["pr_estimated"] = est
			row["pr_drift"] = q.PRMeasured - est
		}
		if ent, ok := s.fed.QueryEntity(q.Query); ok {
			row["entity"] = ent
		}
		queries = append(queries, row)
	}

	slo := make([]map[string]any, 0)
	for _, v := range s.fed.SLOStatus() {
		row := map[string]any{
			"rule":      v.Rule.Raw,
			"breached":  v.Breached,
			"evaluated": v.Evaluated,
		}
		// Value is NaN when the window carried no traffic; JSON has no
		// NaN, so unevaluated rules simply omit it.
		if !math.IsNaN(v.Value) {
			row["value"] = v.Value
		}
		slo = append(slo, row)
	}

	writeJSON(w, http.StatusOK, map[string]any{
		"e2e":         summarize(att.E2E),
		"stages":      stages,
		"queries":     queries,
		"slo":         slo,
		"incomplete":  att.Incomplete,
		"stage_order": latency.Stages,
	})
}

// events serves the flight recorder. since is an exclusive sequence
// cursor (0 = from the beginning); kind filters by exact kind or
// dot-boundary prefix ("detector" matches detector.suspect).
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	j := s.fed.Journal()
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: no event journal"))
		return
	}
	var since uint64
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad since %q: must be a non-negative integer", q))
			return
		}
		since = v
	}
	kind := r.URL.Query().Get("kind")
	if kind != "" && !obslog.ValidKind(kind) {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("httpapi: bad kind %q: want dot-separated [a-z0-9_-] segments", kind))
		return
	}
	events := j.Since(since, kind)
	writeJSON(w, http.StatusOK, map[string]any{
		"last_seq": j.LastSeq(),
		"dropped":  j.Dropped(),
		"events":   events,
	})
}

// clusterPage is the live ops view: an entity table with health and
// PR_max sparklines plus the recent event tail, polled from
// /cluster/health and /events by a little inline script.
func (s *Server) clusterPage(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(clusterPageHTML))
}

const clusterPageHTML = `<!doctype html>
<html>
<head>
<meta charset="utf-8">
<title>sspd cluster</title>
<style>
  body { font-family: ui-monospace, monospace; margin: 1.5rem; background: #111; color: #ddd; }
  h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; margin-top: 1.5rem; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: left; padding: 0.25rem 0.75rem; border-bottom: 1px solid #333; font-size: 0.85rem; }
  th { color: #888; font-weight: normal; }
  .ok { color: #6c6; } .bad { color: #e66; }
  svg { vertical-align: middle; }
  #events div { padding: 0.1rem 0; font-size: 0.8rem; border-bottom: 1px solid #222; }
  .kind { color: #8bf; } .seq { color: #666; } .muted { color: #888; font-size: 12px; font-weight: normal; }
  #meta, #lat-meta { color: #888; font-size: 0.8rem; }
  .wf { display: inline-flex; width: 220px; height: 12px; background: #222; }
  .wf div { height: 100%; }
  .wf-dissemination { background: #8bf; } .wf-network { background: #e66; }
  .wf-ingest { background: #fc6; } .wf-engine { background: #c9f; } .wf-eval { background: #6c6; }
  .slo { display: inline-block; padding: 0 0.5rem; margin-right: 0.5rem; border-radius: 3px; font-size: 0.8rem; }
  .slo.ok { background: #163; color: #cfc; } .slo.bad { background: #611; color: #fcc; }
  .slo.idle { background: #333; color: #999; }
  .legend span { margin-right: 0.8rem; font-size: 0.75rem; color: #999; }
  .swatch { display: inline-block; width: 9px; height: 9px; margin-right: 0.25rem; }
  .hm { display: inline-flex; }
  .hm div { width: 11px; height: 12px; margin-right: 1px; background: #222; }
</style>
</head>
<body>
<h1>sspd cluster</h1>
<div id="meta">loading…</div>
<table>
  <thead><tr><th>entity</th><th>health</th><th>load</th><th>queries</th><th>PR_max</th><th>PR_max trend</th><th>age</th></tr></thead>
  <tbody id="entities"></tbody>
</table>
<h2>latency</h2>
<div id="lat-meta">latency attribution not enabled</div>
<div id="slo"></div>
<div class="legend" id="lat-legend"></div>
<table>
  <thead><tr><th>stage</th><th>share</th><th>p50</th><th>p95</th><th>p99</th></tr></thead>
  <tbody id="lat-stages"></tbody>
</table>
<table>
  <thead><tr><th>query</th><th>entity</th><th>waterfall</th><th>mean</th><th>p99</th><th>PR meas</th><th>PR est</th><th>drift</th></tr></thead>
  <tbody id="lat-queries"></tbody>
</table>
<h2>engine</h2>
<div id="eng-meta">engine introspection not enabled</div>
<table>
  <thead><tr><th>entity</th><th>queries</th><th>shard occupancy</th><th>dropped</th><th>drop trend</th><th>kernel hit</th><th>selectivity</th></tr></thead>
  <tbody id="eng-entities"></tbody>
</table>
<h2>migrations</h2>
<table>
  <thead><tr><th>query</th><th>from → to</th><th>outcome</th><th>state</th><th>replayed</th><th>pause</th><th>reason</th></tr></thead>
  <tbody id="migrations"></tbody>
</table>
<h2>recoveries <span id="ckpt-meta" class="muted"></span></h2>
<table>
  <thead><tr><th>query</th><th>failed → target</th><th>outcome</th><th>ckpt seq</th><th>replayed</th><th>reason</th></tr></thead>
  <tbody id="recoveries"></tbody>
</table>
<h2>recent events</h2>
<div id="events"></div>
<script>
function spark(vals) {
  if (!vals || !vals.length) return '';
  const w = 96, h = 18, max = Math.max(...vals, 1e-9);
  const pts = vals.map((v, i) =>
    (i * w / Math.max(vals.length - 1, 1)).toFixed(1) + ',' +
    (h - 2 - (v / max) * (h - 4)).toFixed(1)).join(' ');
  return '<svg width="' + w + '" height="' + h + '"><polyline points="' + pts +
    '" fill="none" stroke="#8bf" stroke-width="1.2"/></svg>';
}
function esc(s) { return String(s).replace(/[&<>]/g, c => ({'&':'&amp;','<':'&lt;','>':'&gt;'}[c])); }
function ms(sec) { return sec >= 0.0995 ? (sec).toFixed(2) + 's' : (sec * 1e3).toFixed(1) + 'ms'; }
function waterfall(order, wf) {
  if (!wf) return '';
  const total = order.reduce((a, st) => a + (wf[st] || 0), 0);
  if (total <= 0) return '';
  return '<span class="wf" title="' +
    order.map(st => st + ': ' + ms(wf[st] || 0)).join(', ') + '">' +
    order.map(st => '<div class="wf-' + st + '" style="width:' +
      (100 * (wf[st] || 0) / total).toFixed(1) + '%"></div>').join('') + '</span>';
}
async function refreshLatency() {
  const lr = await fetch('cluster/latency');
  if (!lr.ok) { document.getElementById('lat-meta').textContent = 'latency attribution not enabled'; return; }
  const l = await lr.json();
  const order = l.stage_order || [];
  document.getElementById('lat-meta').textContent =
    'end-to-end: ' + l.e2e.count + ' spans · mean ' + ms(l.e2e.mean_seconds) +
    ' · p99 ' + ms(l.e2e.p99_seconds) + (l.incomplete ? ' · ' + l.incomplete + ' incomplete' : '');
  document.getElementById('slo').innerHTML = (l.slo || []).map(v =>
    '<span class="slo ' + (v.breached ? 'bad' : (v.evaluated ? 'ok' : 'idle')) + '">' + esc(v.rule) +
    ('value' in v ? ' · ' + v.value.toFixed(3) : '') + '</span>').join('');
  document.getElementById('lat-legend').innerHTML = order.map(st =>
    '<span><span class="swatch wf-' + st + '"></span>' + st + '</span>').join('');
  document.getElementById('lat-stages').innerHTML = order.map(st => {
    const s = (l.stages || {})[st];
    if (!s) return '';
    return '<tr><td>' + st + '</td><td>' + (100 * s.share).toFixed(1) + '%</td>' +
      '<td>' + ms(s.p50_seconds) + '</td><td>' + ms(s.p95_seconds) + '</td><td>' + ms(s.p99_seconds) + '</td></tr>';
  }).join('');
  document.getElementById('lat-queries').innerHTML = (l.queries || []).map(q =>
    '<tr><td>' + esc(q.query) + '</td><td>' + esc(q.entity || '') + '</td>' +
    '<td>' + waterfall(order, q.waterfall) + '</td>' +
    '<td>' + ms(q.e2e.mean_seconds) + '</td><td>' + ms(q.e2e.p99_seconds) + '</td>' +
    '<td>' + q.pr_measured.toFixed(2) + '</td>' +
    '<td>' + ('pr_estimated' in q ? q.pr_estimated.toFixed(2) : '—') + '</td>' +
    '<td>' + ('pr_drift' in q ? q.pr_drift.toFixed(2) : '—') + '</td></tr>').join('');
}
function heat(shards) {
  if (!shards || !shards.length) return '';
  return '<span class="hm">' + shards.map(sh => {
    const f = sh.ring_cap > 0 ? Math.min(Math.max(sh.occupancy / sh.ring_cap, 0), 1) : 0;
    const hw = sh.ring_cap > 0 ? sh.high_water / sh.ring_cap : 0;
    const r = Math.round(40 + 200 * f), g = Math.round(80 - 40 * f);
    return '<div style="background:rgb(' + r + ',' + g + ',40)" title="' +
      esc((sh.engine || '') + '/s' + sh.shard) + ': occ ' + sh.occupancy + '/' + sh.ring_cap +
      ' · hw ' + (100 * hw).toFixed(0) + '% · dropped ' + sh.dropped + '"></div>';
  }).join('') + '</span>';
}
async function refreshEngine() {
  const gr = await fetch('cluster/engine');
  if (!gr.ok) { document.getElementById('eng-meta').textContent = 'engine introspection not enabled'; return; }
  const g = await gr.json();
  document.getElementById('eng-meta').innerHTML =
    'drop rate ' + (100 * g.drop_rate).toFixed(2) + '% · ring occ p99 ' +
    (100 * g.ring_occupancy_p99).toFixed(1) + '% · ' +
    (g.saturated ? '<span class="slo bad">saturated</span>' : '<span class="slo ok">healthy</span>');
  document.getElementById('eng-entities').innerHTML = (g.entities || []).map(e => {
    const sh = (e.stats && e.stats.shards) || [];
    let tup = 0, kern = 0, kin = 0, kout = 0;
    sh.forEach(s => { tup += s.tuples; kern += s.kernel_tuples; kin += s.kernel_in; kout += s.kernel_out; });
    return '<tr><td>' + esc(e.entity) + '</td><td>' + ((e.stats && e.stats.queries) || 0) + '</td>' +
      '<td>' + heat(sh) + '</td><td>' + e.dropped + '</td>' +
      '<td>' + spark(e.drop_spark) + '</td>' +
      '<td>' + (tup > 0 ? (100 * kern / tup).toFixed(1) + '%' : '—') + '</td>' +
      '<td>' + (kin > 0 ? (100 * kout / kin).toFixed(1) + '%' : '—') + '</td></tr>';
  }).join('');
}
async function refresh() {
  try {
    const hr = await fetch('cluster/health');
    if (!hr.ok) { document.getElementById('meta').textContent = 'stats plane not enabled'; return; }
    const h = await hr.json();
    document.getElementById('meta').textContent =
      'digest root: ' + h.root + ' · entities: ' + h.entities.length;
    document.getElementById('entities').innerHTML = h.entities.map(e => {
      const row = (h.rows || {})[e.entity] || {};
      return '<tr><td>' + esc(e.entity) + '</td>' +
        '<td class="' + (e.healthy ? 'ok">healthy' : 'bad">' + (e.up ? 'stale' : 'down')) + '</td>' +
        '<td>' + e.load.toFixed(2) + '</td><td>' + e.queries + '</td>' +
        '<td>' + e.pr_max.toFixed(3) + '</td><td>' + spark(row.pr_spark) + '</td>' +
        '<td>' + (e.age_seconds < 0 ? '—' : e.age_seconds.toFixed(1) + 's') + '</td></tr>';
    }).join('');
    document.getElementById('migrations').innerHTML = (h.migrations || []).slice(0, 20).map(m =>
      '<tr><td>' + esc(m.query) + '</td><td>' + esc(m.from) + ' → ' + esc(m.to) + '</td>' +
      '<td class="' + (m.outcome === 'commit' ? 'ok' : 'bad') + '">' + esc(m.outcome) + '</td>' +
      '<td>' + m.state_bytes + 'B</td><td>' + m.replayed + '</td>' +
      '<td>' + m.pause_ms.toFixed(1) + 'ms</td><td>' + esc(m.reason || '') + '</td></tr>').join('');
    const ck = h.checkpoints || {};
    document.getElementById('ckpt-meta').textContent = ck.enabled
      ? '· ' + ck.writes + ' written · ' + ck.quorum_acked + ' quorum-acked (K=' + ck.replicas +
        ', Q=' + ck.quorum + ') · ' + ck.ring_tuples + ' ring tuples' +
        (ck.corrupt ? ' · ' + ck.corrupt + ' corrupt' : '')
      : '· checkpoints disabled';
    document.getElementById('recoveries').innerHTML = (h.recoveries || []).slice(0, 20).map(r =>
      '<tr><td>' + esc(r.query) + '</td><td>' + esc(r.failed) + ' → ' + esc(r.target || '—') + '</td>' +
      '<td class="' + (r.outcome === 'failed' ? 'bad' : 'ok') + '">' + esc(r.outcome) + '</td>' +
      '<td>' + (r.ckpt_seq || '—') + '</td><td>' + r.replayed + '</td>' +
      '<td>' + esc(r.reason || '') + '</td></tr>').join('');
    await refreshLatency();
    await refreshEngine();
    const er = await fetch('events');
    if (er.ok) {
      const ev = await er.json();
      document.getElementById('events').innerHTML = (ev.events || []).slice(-40).reverse().map(e =>
        '<div><span class="seq">#' + e.seq + '</span> <span class="kind">' + esc(e.kind) +
        '</span> ' + esc(e.node) + ' — ' + esc(e.msg) + '</div>').join('');
    }
  } catch (err) {
    document.getElementById('meta').textContent = 'portal unreachable: ' + err;
  }
}
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
`
