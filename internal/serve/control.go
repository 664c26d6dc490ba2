package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"memstream/internal/metrics"
	"memstream/internal/model"
	"memstream/internal/units"
)

// The HTTP control plane: a JSON API over the supervisor's live state,
// served by cmd/memserve next to the TCP streaming port.
//
//	GET  /metrics            full document: counters, lag histogram,
//	                         per-tier admission gauges, per-stream list
//	                         (the stream array is streamed, not buffered)
//	GET  /status             cheap liveness/occupancy view
//	POST /streams/{id}/stop  force-close one live stream
//	POST /drain              trigger the graceful drain
//
// The wire schema lives in internal/metrics (Document, Status, ...) so
// cmd/memsload's probe and verifier decode exactly what is encoded here.

// ControlHandler returns the control-plane HTTP handler. Every reply,
// errors included, is JSON: each route refuses a wrong method itself and
// a catch-all answers unknown paths, so the mux's own text/plain 404 and
// 405 never go out.
func (s *Server) ControlHandler() http.Handler {
	mux := http.NewServeMux()
	route := func(method, pattern string, h http.HandlerFunc) {
		allow := method
		if method == http.MethodGet {
			allow = "GET, HEAD"
		}
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
				w.Header().Set("Allow", allow)
				jsonError(w, http.StatusMethodNotAllowed, fmt.Sprintf("%s takes %s, not %s", pattern, allow, r.Method))
				return
			}
			h(w, r)
		})
	}
	route(http.MethodGet, "/metrics", s.handleMetricsHTTP)
	route(http.MethodGet, "/status", s.handleStatusHTTP)
	route(http.MethodPost, "/streams/{id}/stop", s.handleStreamStop)
	route(http.MethodPost, "/drain", s.handleDrainHTTP)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		jsonError(w, http.StatusNotFound, "no route "+r.URL.Path)
	})
	return mux
}

// state renders the drain flag as the wire state string.
func (s *Server) state() string {
	if s.Draining() {
		return "draining"
	}
	return "serving"
}

// status assembles the GET /status document.
func (s *Server) status() metrics.Status {
	s.mu.Lock()
	admitted := s.cfg.Admission.Admitted()
	agg := s.cfg.Admission.Aggregate()
	conns := s.nconns
	s.mu.Unlock()
	return metrics.Status{
		Server:        "memserve",
		State:         s.state(),
		Admitted:      admitted,
		Capacity:      s.Capacity(),
		ActiveStreams: s.metrics.ActiveStreams.Load(),
		Conns:         conns,
		AggregateBps:  float64(agg),
		UptimeMS:      math.Round(float64(time.Since(s.started)) / float64(time.Millisecond)),
	}
}

// tiers renders the admission controller's per-tier view: what Theorem 1
// has committed of the disk's bandwidth and the DRAM budget for the
// current population. The DRAM figure is the plan's TotalDRAM — the
// buffer space the admitted mix requires — not a live allocator gauge.
func (s *Server) tiers() []metrics.Tier {
	s.mu.Lock()
	adm := s.cfg.Admission
	admitted := adm.Admitted()
	agg := adm.Aggregate()
	disk := adm.Disk
	dramCap := adm.DRAMCap
	s.mu.Unlock()

	diskTier := metrics.Tier{
		Name:         "disk",
		RateBps:      float64(disk.Rate),
		AggregateBps: float64(agg),
	}
	if disk.Rate > 0 {
		diskTier.Utilization = float64(agg) / float64(disk.Rate)
	}
	dramTier := metrics.Tier{Name: "dram", CapBytes: float64(dramCap)}
	if admitted > 0 {
		load := model.StreamLoad{N: admitted, BitRate: units.ByteRate(float64(agg) / float64(admitted))}
		if plan, err := model.DiskDirect(load, disk); err == nil {
			dramTier.UsedBytes = float64(plan.TotalDRAM)
			if dramCap > 0 {
				dramTier.Utilization = float64(plan.TotalDRAM) / float64(dramCap)
			}
		}
	}
	return []metrics.Tier{dramTier, diskTier}
}

// streamStats snapshots the registry's streams, ordered by id; a tracked
// connection that is not a stream (id 0) is skipped.
func (s *Server) streamStats() []metrics.Stream {
	now := time.Since(s.started)
	s.mu.Lock()
	out := make([]metrics.Stream, 0, s.nconns)
	for st := s.reg.next; st != &s.reg; st = st.next {
		if st.id == 0 {
			continue
		}
		out = append(out, metrics.Stream{
			ID:      st.id,
			RateBps: float64(st.rate),
			Bytes:   st.bytes.Load(),
			AgeMS:   math.Round(float64(now-st.start) / float64(time.Millisecond)),
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// handleMetricsHTTP serves the full metrics document. The envelope
// (counters, gauges, histogram, tiers) is marshalled at once, but the
// per-stream array — the only part that grows with load — is streamed
// entry-by-entry with periodic flushes, so a server carrying thousands
// of streams starts responding immediately and never buffers the whole
// document.
func (s *Server) handleMetricsHTTP(w http.ResponseWriter, r *http.Request) {
	doc := metrics.Document{
		Server:   "memserve",
		State:    s.state(),
		UptimeMS: math.Round(float64(time.Since(s.started)) / float64(time.Millisecond)),
		Counters: s.metrics.Counters(),
		Gauges: map[string]int64{
			"admitted":       int64(s.Admitted()),
			"capacity":       int64(s.Capacity()),
			"active_streams": s.metrics.ActiveStreams.Load(),
			"wheel_streams":  s.metrics.WheelStreams.Load(),
			"conns":          int64(s.activeConns()),
		},
		Lag:   s.metrics.Lag.Snapshot().Wire(),
		Tiers: s.tiers(),
	}
	envelope, err := json.Marshal(doc)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The marshalled doc ends `"streams":null}`: Streams is nil and is
	// declared last in metrics.Document (TestMetricsEnvelopeEndsInStreams
	// holds it there). Strip the closing `null}` and stream the array in
	// its place.
	w.Write(envelope[:len(envelope)-len(`null}`)])
	w.Write([]byte{'['})
	flusher, _ := w.(http.Flusher)
	for i, st := range s.streamStats() {
		if i > 0 {
			w.Write([]byte{','})
		}
		entry, err := json.Marshal(st)
		if err != nil {
			// The envelope is already on the wire; the best we can do is
			// truncate, which the client's JSON decoder will reject.
			return
		}
		w.Write(entry)
		if flusher != nil && i%64 == 63 {
			flusher.Flush()
		}
	}
	w.Write([]byte("]}"))
}

func (s *Server) handleStatusHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.status())
}

func (s *Server) handleStreamStop(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		jsonError(w, http.StatusBadRequest, fmt.Sprintf("bad stream id %q", r.PathValue("id")))
		return
	}
	if !s.StopStream(id) {
		jsonError(w, http.StatusNotFound, fmt.Sprintf("no live stream %d", id))
		return
	}
	s.logf("serve: control plane stopped stream %d", id)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"id":%d,"stopped":true}`+"\n", id)
}

// jsonError replies code with the body {"error": msg}.
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func (s *Server) handleDrainHTTP(w http.ResponseWriter, r *http.Request) {
	s.Drain()
	s.logf("serve: control plane triggered drain")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintln(w, `{"state":"draining"}`)
}
