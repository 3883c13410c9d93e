package httpapi

// Engine introspection endpoints (DESIGN.md §14):
//
//	GET /cluster/engine   per-entity shard telemetry + backpressure state
//	GET /profiles         continuous-profiling capture ring listing
//	GET /profiles/{name}  one stored pprof capture (binary)

import (
	"fmt"
	"math"
	"net/http"

	"sspd/internal/profile"
)

// clusterEngine answers the cluster engine view: every entity's merged
// shard telemetry (occupancy, drops, kernel split) plus the
// backpressure watchdog's last windowed readings and verdicts.
func (s *Server) clusterEngine(w http.ResponseWriter, _ *http.Request) {
	view, ok := s.fed.ClusterEngine()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: engine introspection needs the stats plane"))
		return
	}
	verdicts := make([]map[string]any, 0, len(view.Verdicts))
	for _, v := range view.Verdicts {
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
		verdicts = append(verdicts, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"entities":           view.Entities,
		"drop_rate":          view.DropRate,
		"ring_occupancy_p99": view.RingOccP99,
		"saturated":          view.Saturated,
		"verdicts":           verdicts,
	})
}

// listProfiles lists the profiling ring's stored captures, newest
// first.
func (s *Server) listProfiles(w http.ResponseWriter, _ *http.Request) {
	rec := s.fed.Profiler()
	if rec == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: profiling not enabled"))
		return
	}
	cs := rec.Captures()
	profile.SortCaptures(cs)
	writeJSON(w, http.StatusOK, map[string]any{
		"dir":      rec.Dir(),
		"total":    rec.Total(),
		"captures": cs,
	})
}

// getProfile serves one stored capture's raw pprof bytes.
func (s *Server) getProfile(w http.ResponseWriter, r *http.Request) {
	rec := s.fed.Profiler()
	if rec == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("httpapi: profiling not enabled"))
		return
	}
	name := r.PathValue("name")
	data, err := rec.Open(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}
