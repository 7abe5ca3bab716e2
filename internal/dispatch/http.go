package dispatch

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
)

// syntheticIDBase starts server-assigned task ids well above any client-
// chosen range so the two never collide.
const syntheticIDBase = 1 << 30

// clientTaskID reports whether a client, over HTTP or the wire, may submit a
// task under id: negative ids are the forecaster's virtual tasks and ids from
// syntheticIDBase up are server-assigned, so a client id colliding with
// either could double-assign one. 0 asks the server to draw an id.
func clientTaskID(id int64) bool { return id >= 0 && id < syntheticIDBase }

// Handler is the HTTP/JSON ingestion and query API over a Dispatcher:
//
//	POST /v1/workers            {id, x, y, reach, avail}   worker online
//	POST /v1/workers/offline    {id}                       worker offline
//	POST /v1/workers/heartbeat  {id, x, y}                 position update
//	POST /v1/tasks              {id?, x, y, valid}         submit task
//	POST /v1/tasks/cancel       {id}                       cancel task
//	POST /v1/stream             batched event stream       binary wire frames (internal/wire)
//	GET  /v1/plan?worker=ID                                current schedule
//	GET  /v1/metrics                                       snapshot (JSON)
//	GET  /v1/trace.json?n=K                                Chrome trace-event JSON (spans)
//	GET  /v1/tasks/{id}/history                            lifecycle ledger chain
//	GET  /v1/flight                                        flight-recorder dumps
//	GET  /metrics                                          Prometheus text format
//	GET  /healthz                                          liveness
//
// Each per-event ingestion endpoint builds one Event and holds it to the
// dispatcher's one event rule (wellFormed): a request that fails it gets 400
// Bad Request and moves no counter, and any other gets 202 Accepted with the
// logical effect time. Events take effect at the next planning epoch, not
// synchronously.
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
	now := h.d.Now()
	h.admit(w, req.ID, Event{Time: now, Kind: KindWorkerOnline, Worker: &core.Worker{
		ID: req.ID, Loc: geo.Point{X: req.X, Y: req.Y},
		Reach: req.Reach, On: now, Off: now + req.Avail,
	}})
}

func (h *Handler) workerOffline(w http.ResponseWriter, r *http.Request) {
	var req idReq
	if decode(w, r, &req) {
		h.admit(w, req.ID, Event{Time: h.d.Now(), Kind: KindWorkerOffline, ID: req.ID})
	}
}

func (h *Handler) heartbeat(w http.ResponseWriter, r *http.Request) {
	var req idReq
	if decode(w, r, &req) {
		h.admit(w, req.ID, Event{Time: h.d.Now(), Kind: KindPosition, ID: req.ID,
			Loc: geo.Point{X: req.X, Y: req.Y}})
	}
}

func (h *Handler) submitTask(w http.ResponseWriter, r *http.Request) {
	var req taskReq
	if !decode(w, r, &req) {
		return
	}
	if !clientTaskID(int64(req.ID)) {
		httpError(w, http.StatusBadRequest, "id must be in [0, 2^30) (0 = server-assigned)")
		return
	}
	now := h.d.Now()
	h.admit(w, req.ID, Event{Time: now, Kind: KindTaskSubmit, Task: &core.Task{
		ID: req.ID, Loc: geo.Point{X: req.X, Y: req.Y},
		Pub: now, Exp: now + req.Valid, Cell: -1,
	}})
}

func (h *Handler) cancelTask(w http.ResponseWriter, r *http.Request) {
	var req idReq
	if decode(w, r, &req) {
		h.admit(w, req.ID, Event{Time: h.d.Now(), Kind: KindTaskCancel, ID: req.ID})
	}
}

// admit answers one per-event request. An event that is not well formed
// (wellFormed) gets 400 and moves no counter; any other is ingested and gets
// 202 with its id and effect time. A task submitted with id 0 draws its
// server-assigned id only once it has passed, so a refused submit draws none.
func (h *Handler) admit(w http.ResponseWriter, id int, ev Event) {
	if !wellFormed(&ev) {
		httpError(w, http.StatusBadRequest,
			"malformed event: worker id, reach and avail and task valid must be positive, every number finite")
		return
	}
	if ev.Kind == KindTaskSubmit && id == 0 {
		id = h.d.nextSyntheticID()
		ev.Task.ID = id
	}
	h.d.Ingest(ev)
	writeJSON(w, http.StatusAccepted, acceptedResp{ID: id, Time: ev.Time})
}

// stream is the batched ingest endpoint: the request body is a sequence of
// length-prefixed binary frames (internal/wire), consumed until EOF. The
// response summarizes the session: accepted/rejected event counts, the frame
// count and the next epoch's instant. Its events are checked by IngestBatch
// against the same rule as the per-event JSON endpoints above (wellFormed),
// but a session reports the events it rejects in its summary and carries on,
// where a per-event request is refused with 400. A body that breaks the
// framing (a JSON body fails the magic check) gets 400 with the counts of the
// frames before the break; a failure reading the body gets 500.
//
//	# a client encodes frames with wire.Encoder
//	curl -s --data-binary @events.wire localhost:8080/v1/stream
func (h *Handler) stream(w http.ResponseWriter, r *http.Request) {
	sum, err := h.d.ConsumeStream(r.Body)
	if err != nil {
		status := http.StatusInternalServerError
		if protocolError(err) {
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
