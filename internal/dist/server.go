package dist

import (
	"net/http"

	"github.com/metascreen/metascreen/internal/service"
)

// The coordinator's HTTP API. Screens are submitted and read exactly
// like on a single node — same paths, same pagination, same idempotency
// header — so clients do not care whether they talk to a node or a
// cluster. The additions are membership:
//
//	POST   /v1/screens            submit a distributed screen -> 202 JobView
//	                              (507 + Retry-After while the journal
//	                              cannot take the screen's record)
//	GET    /v1/screens            list jobs                   -> 200 [JobView]
//	GET    /v1/screens/{id}       status + merged ranking     -> 200 JobView
//	                              (?limit=&offset= window the ranking; a
//	                              running job serves the partial merge)
//	GET    /v1/screens/{id}/trace shard timeline (Chrome trace) -> 200
//	DELETE /v1/screens/{id}       cancel (fans out to workers) -> 202
//	                              (507 while the journal cannot take it)
//	POST   /v1/workers            register/heartbeat {"url": ...} -> 200
//	GET    /v1/workers            membership                  -> 200 [WorkerView]
//	GET    /healthz               liveness                    -> 200 Stats
//	GET    /readyz                readiness                   -> 200/503
//	GET    /metrics               Prometheus text exposition  -> 200
//	GET    /debug/snapshot        stats + per-worker rates + jobs -> 200
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/screens", c.handleSubmit)
	mux.HandleFunc("GET /v1/screens", c.handleList)
	mux.HandleFunc("GET /v1/screens/{id}", c.handleGet)
	mux.HandleFunc("GET /v1/screens/{id}/trace", c.handleTrace)
	mux.HandleFunc("DELETE /v1/screens/{id}", c.handleCancel)
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /readyz", c.handleReady)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /debug/snapshot", c.handleSnapshot)
	return mux
}

// DebugHandler returns the coordinator's debug mux for vsserved
// -debug-addr: the node's pprof + expvar routes around the coordinator's
// own /debug/snapshot (which stays on the API port too).
func (c *Coordinator) DebugHandler() http.Handler { return service.DebugMux(c.handleSnapshot) }

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req service.ScreenRequest
	if !service.DecodeJSON(w, r, &req) {
		return
	}
	view, existing, err := c.Submit(req, r.Header.Get("Idempotency-Key"))
	if err != nil {
		service.WriteError(w, service.SubmitStatus(err), err)
		return
	}
	if existing {
		service.WriteJSON(w, http.StatusOK, view)
		return
	}
	w.Header().Set("Location", "/v1/screens/"+view.ID)
	service.WriteJSON(w, http.StatusAccepted, view)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, c.List())
}

func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := c.Get(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusNotFound, err)
		return
	}
	page, err := service.ParsePage(r.URL.Query())
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return
	}
	view.Result = view.Result.Paged(page)
	service.WriteJSON(w, http.StatusOK, view)
}

func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec, err := c.Trace(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rec.WriteChrome(w)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := c.Cancel(r.PathValue("id"))
	if err != nil {
		service.WriteError(w, service.SubmitStatus(err), err)
		return
	}
	service.WriteJSON(w, http.StatusAccepted, view)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	if !service.DecodeJSON(w, r, &body) {
		return
	}
	n, err := c.Register(body.URL)
	if err != nil {
		service.WriteError(w, service.SubmitStatus(err), err)
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]int{"workers": n})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, c.Workers())
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := c.Stats()
	code := http.StatusOK
	if st.Draining {
		code = http.StatusServiceUnavailable
	}
	service.WriteJSON(w, code, st)
}

func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	ready := c.Ready()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	service.WriteJSON(w, code, map[string]bool{"ready": ready})
}

func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, c.Snapshot())
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.metrics.WriteTo(w, c.Stats())
}
