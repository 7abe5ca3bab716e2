package dispatch

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
)

// syntheticIDBase starts server-assigned task ids well above any client-
// chosen range so the two never collide.
const syntheticIDBase = 1 << 30

// Handler is the HTTP/JSON ingestion and query API over a Dispatcher:
//
//	POST /v1/workers            {id, x, y, reach, avail}   worker online
//	POST /v1/workers/offline    {id}                       worker offline
//	POST /v1/workers/heartbeat  {id, x, y}                 position update
//	POST /v1/tasks              {id?, x, y, valid}         submit task
//	POST /v1/tasks/cancel       {id}                       cancel task
//	POST /v1/stream             batched event stream       binary frames or NDJSON (internal/wire)
//	GET  /v1/plan?worker=ID                                current schedule
//	GET  /v1/metrics                                       snapshot (JSON)
//	GET  /v1/trace.json?n=K                                Chrome trace-event JSON (spans)
//	GET  /v1/tasks/{id}/history                            lifecycle ledger chain
//	GET  /v1/flight                                        flight-recorder dumps
//	GET  /metrics                                          Prometheus text format
//	GET  /healthz                                          liveness
//
// Ingestion endpoints respond 202 Accepted with the logical effect time:
// events take effect at the next planning epoch, not synchronously.
type Handler struct {
	d   *Dispatcher
	mux *http.ServeMux
}

// NewHandler wraps a dispatcher in its HTTP API.
func NewHandler(d *Dispatcher) *Handler {
	h := &Handler{d: d, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/workers", h.workerOnline)
	h.mux.HandleFunc("POST /v1/workers/offline", h.workerOffline)
	h.mux.HandleFunc("POST /v1/workers/heartbeat", h.heartbeat)
	h.mux.HandleFunc("POST /v1/tasks", h.submitTask)
	h.mux.HandleFunc("POST /v1/tasks/cancel", h.cancelTask)
	h.mux.HandleFunc("POST /v1/stream", h.stream)
	h.mux.HandleFunc("GET /v1/plan", h.plan)
	h.mux.HandleFunc("GET /v1/metrics", h.metrics)
	h.mux.HandleFunc("GET /v1/trace.json", h.chromeTrace)
	h.mux.HandleFunc("GET /v1/tasks/{id}/history", h.taskHistory)
	h.mux.HandleFunc("GET /v1/flight", h.flight)
	h.mux.HandleFunc("GET /metrics", h.prometheus)
	h.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

type workerReq struct {
	ID    int     `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Reach float64 `json:"reach"`
	// Avail is the availability window length in logical seconds from now.
	Avail float64 `json:"avail"`
}

type taskReq struct {
	ID int     `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
	// Valid is the validity window e − p in logical seconds.
	Valid float64 `json:"valid"`
}

type idReq struct {
	ID int     `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

type acceptedResp struct {
	ID int `json:"id"`
	// Time is the logical instant the event takes effect (the next epoch).
	Time float64 `json:"time"`
}

func (h *Handler) workerOnline(w http.ResponseWriter, r *http.Request) {
	var req workerReq
	if !decode(w, r, &req) {
		return
	}
	if req.ID <= 0 || req.Reach <= 0 || req.Avail <= 0 {
		httpError(w, http.StatusBadRequest, "id, reach and avail must be positive")
		return
	}
	if !finite(req.X, req.Y, req.Reach, req.Avail) {
		httpError(w, http.StatusBadRequest, "x, y, reach and avail must be finite")
		return
	}
	now := h.d.Now()
	h.d.WorkerOnline(&core.Worker{
		ID: req.ID, Loc: geo.Point{X: req.X, Y: req.Y},
		Reach: req.Reach, On: now, Off: now + req.Avail,
	})
	writeJSON(w, http.StatusAccepted, acceptedResp{ID: req.ID, Time: now})
}

func (h *Handler) workerOffline(w http.ResponseWriter, r *http.Request) {
	var req idReq
	if !decode(w, r, &req) {
		return
	}
	h.d.WorkerOffline(req.ID)
	writeJSON(w, http.StatusAccepted, acceptedResp{ID: req.ID, Time: h.d.Now()})
}

func (h *Handler) heartbeat(w http.ResponseWriter, r *http.Request) {
	var req idReq
	if !decode(w, r, &req) {
		return
	}
	if !finite(req.X, req.Y) {
		httpError(w, http.StatusBadRequest, "x and y must be finite")
		return
	}
	h.d.Heartbeat(req.ID, geo.Point{X: req.X, Y: req.Y})
	writeJSON(w, http.StatusAccepted, acceptedResp{ID: req.ID, Time: h.d.Now()})
}

func (h *Handler) submitTask(w http.ResponseWriter, r *http.Request) {
	var req taskReq
	if !decode(w, r, &req) {
		return
	}
	if req.Valid <= 0 {
		httpError(w, http.StatusBadRequest, "valid must be positive")
		return
	}
	if !finite(req.X, req.Y, req.Valid) {
		httpError(w, http.StatusBadRequest, "x, y and valid must be finite")
		return
	}
	// Negative ids are reserved for forecaster-generated virtual tasks and
	// ids at or above the synthetic base for server-assigned ones; a
	// client-chosen collision with either could double-assign an id.
	if req.ID < 0 || req.ID >= syntheticIDBase {
		httpError(w, http.StatusBadRequest,
			"id must be in [0, 2^30) (0 = server-assigned)")
		return
	}
	id := req.ID
	if id == 0 {
		id = h.d.nextSyntheticID()
	}
	now := h.d.Now()
	h.d.SubmitTask(&core.Task{
		ID: id, Loc: geo.Point{X: req.X, Y: req.Y},
		Pub: now, Exp: now + req.Valid, Cell: -1,
	})
	writeJSON(w, http.StatusAccepted, acceptedResp{ID: id, Time: now})
}

func (h *Handler) cancelTask(w http.ResponseWriter, r *http.Request) {
	var req idReq
	if !decode(w, r, &req) {
		return
	}
	h.d.CancelTask(req.ID)
	writeJSON(w, http.StatusAccepted, acceptedResp{ID: req.ID, Time: h.d.Now()})
}

// stream is the batched ingest endpoint: the request body is a persistent
// event stream — length-prefixed binary frames (internal/wire) or NDJSON
// lines, sniffed from the first byte — consumed until EOF. The response
// summarizes the session: accepted/rejected event counts and the frame
// count. This is the high-throughput face of the ingest API; the per-event
// JSON endpoints above are its degenerate single-event case.
//
//	# binary (a client encodes frames with internal/wire)
//	curl -s --data-binary @events.wire localhost:8080/v1/stream
//	# NDJSON (curl-able by hand)
//	printf '%s\n' '{"kind":"task_submit","id":12,"x":1,"y":2,"pub":0,"exp":60}' |
//	  curl -s --data-binary @- localhost:8080/v1/stream
func (h *Handler) stream(w http.ResponseWriter, r *http.Request) {
	sum, err := h.d.ConsumeStream(r.Body)
	if err != nil {
		status := http.StatusInternalServerError
		if IsProtocolError(err) {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, map[string]any{"error": err.Error(), "summary": sum})
		return
	}
	writeJSON(w, http.StatusAccepted, sum)
}

func (h *Handler) plan(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("worker"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "worker query parameter must be an integer")
		return
	}
	wp, ok := h.d.PlanOf(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown or departed worker")
		return
	}
	writeJSON(w, http.StatusOK, wp)
}

func (h *Handler) metrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, h.d.Snapshot())
}

// chromeTrace serves the stage-span ring as Chrome trace-event JSON — load
// the response in chrome://tracing or Perfetto. Empty (but valid) without
// ObsConfig.Spans; ?n=K limits it to the K most recent epochs.
func (h *Handler) chromeTrace(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, "n query parameter must be a non-negative integer")
			return
		}
		n = v
	}
	raw, err := h.d.ChromeTrace(n)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(raw)
}

// taskHistory serves one task's lifecycle ledger chain: every disposal
// transition with its cause, the machine-readable answer to "why was task X
// not served". 404 when the ledger is off, never saw the id, or evicted it.
func (h *Handler) taskHistory(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "task id must be an integer")
		return
	}
	th, ok := h.d.TaskHistory(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no ledger chain for this task (ledger off, id unknown, or chain evicted)")
		return
	}
	writeJSON(w, http.StatusOK, th)
}

// flight serves the retained flight-recorder dumps, oldest first. Empty
// without ObsConfig.FlightDepth.
func (h *Handler) flight(w http.ResponseWriter, _ *http.Request) {
	dumps := h.d.FlightDumps()
	if dumps == nil {
		dumps = []obs.FlightDump{}
	}
	writeJSON(w, http.StatusOK, dumps)
}

// finite rejects NaN and ±Inf inputs — for the HTTP handlers and
// IngestBatch alike — before they reach shard routing: a non-finite
// coordinate would poison the grid-cell arithmetic every ownership and
// replication decision is built on, and a non-finite time or deadline would
// never come due or never expire.
func finite(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		httpError(w, http.StatusBadRequest, "malformed JSON body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
