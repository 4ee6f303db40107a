package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
)

// The HTTP layer: a stdlib-only JSON API over the Service.
//
//	POST   /v1/screens               submit -> 202 JobView (an admitted
//	                                 Idempotency-Key answers its job, 200)
//	GET    /v1/screens               list -> 200 [JobView]
//	GET    /v1/screens/{id}          status + ranking -> 200 JobView
//	                                 (?limit=&offset=, default
//	                                 DefaultRankingLimit)
//	GET    /v1/screens/{id}/partial  completed ligands so far -> 200
//	                                 PartialView (?since=<cursor> for the
//	                                 entries past it, ?wait=<dur> to hold
//	                                 until complete or terminal)
//	GET    /v1/screens/{id}/trace    Chrome-trace timeline (also
//	                                 /jobs/{id}/trace)
//	DELETE /v1/screens/{id}          cancel -> 202 (also /jobs/{id})
//	GET    /healthz, /readyz         liveness -> Stats; readiness -> 200/503
//	GET    /metrics                  Prometheus text exposition
//	GET    /debug/snapshot           the debug snapshot (also -debug-addr)
//
// The runner mounts its own routes too: a coordinator's /v1/workers.
// Errors are {"error": "..."}: ErrQueueFull, ErrDeadlineUnmeetable -> 429;
// ErrDraining, ErrBreakerOpen -> 503; ErrStorageFull -> 507; ErrNotFound
// -> 404; ErrTerminal -> 409; a body over MaxBodyBytes -> 413; else 400.
// A ShedError also carries Retry-After and its reason, queue depth and
// limit.

// EpochHeader carries a coordinator's fencing epoch on chunk requests.
// Workers echo it, so a response from before the worker was declared dead
// and revived fails the echo check and is never merged.
const EpochHeader = "X-Metascreen-Epoch"

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/screens", s.handleSubmit)
	mux.HandleFunc("GET /v1/screens", s.handleList)
	mux.HandleFunc("GET /v1/screens/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/screens/{id}/partial", s.handlePartial)
	mux.HandleFunc("GET /v1/screens/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/screens/{id}", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/snapshot", s.handleDebugSnapshot)
	s.runner.Mount(mux)
	return echoEpoch(mux)
}

// echoEpoch reflects the coordinator's fencing epoch back on every
// response that carried one.
func echoEpoch(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e := r.Header.Get(EpochHeader); e != "" {
			w.Header().Set(EpochHeader, e)
		}
		next.ServeHTTP(w, r)
	})
}

// MaxBodyBytes caps a JSON request body on every role. The largest valid
// request is a 10 000-name `ligands` shard, about 200 KB.
const MaxBodyBytes = 1 << 20

// DecodeJSON reads one strict, size-capped JSON request body into v. On
// failure it has already answered — 413 past MaxBodyBytes, otherwise 400,
// with the usual {"error": ...} body — and returns false.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	WriteError(w, code, err)
	return false
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req ScreenRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	if req.ClientID == "" {
		req.ClientID = r.Header.Get("X-Client-ID")
	}
	view, existing, err := s.SubmitIdem(req, r.Header.Get("Idempotency-Key"))
	if err != nil {
		WriteError(w, SubmitStatus(err), err)
		return
	}
	if existing {
		// A duplicate submission (client retry across a timeout or server
		// restart) maps onto the already-admitted job.
		WriteJSON(w, http.StatusOK, view)
		return
	}
	w.Header().Set("Location", "/v1/screens/"+view.ID)
	WriteJSON(w, http.StatusAccepted, view)
}

// SubmitStatus maps a submit or cancel error to its HTTP status on either
// role: retryable backpressure is 429, outright unavailability 503, and a
// full or failing journal disk 507 (Insufficient Storage) — the client's
// request is fine, the server cannot durably accept it right now.
func SubmitStatus(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrTerminal):
		return http.StatusConflict
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDeadlineUnmeetable):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrStorageFull):
		return http.StatusInsufficientStorage
	}
	return http.StatusBadRequest
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.Get(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	page, err := ParsePage(r.URL.Query())
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	view.Result = view.Result.Paged(page)
	WriteJSON(w, http.StatusOK, view)
}

// handlePartial serves the ligands a job completed so far, a terminal
// job's full set included; the query is validated first.
func (s *Service) handlePartial(w http.ResponseWriter, r *http.Request) {
	q, err := ParsePartialQuery(r.URL.Query())
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	pv, err := s.Partial(r.Context(), r.PathValue("id"), q)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, http.StatusOK, pv)
}

// handleTrace streams a job's timeline in Chrome trace format. The export
// is a point-in-time snapshot: tracing a running job returns the spans
// recorded so far.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec, err := s.Trace(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	rec.WriteChrome(w)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		WriteError(w, SubmitStatus(err), err)
		return
	}
	WriteJSON(w, http.StatusAccepted, view)
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	code := http.StatusOK
	if st.Draining {
		// Draining instances fail readiness so load balancers stop
		// routing to them while running jobs finish.
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, st)
}

// handleReady is the readiness probe: 200 once the journal is replayed
// and the worker pool is up, 503 before that and while draining. The
// coordinator and CI poll it instead of sleeping.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	ready := !s.Stats().Draining
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, map[string]any{
		"ready":    ready,
		"recovery": s.Recovery(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, s.Stats())
}

// WriteJSON answers with v as indented JSON under the given status, the
// response shape of every role.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError answers {"error": ...} under the given status. A ShedError
// also carries a Retry-After header and its reason, queue depth and limit.
func WriteError(w http.ResponseWriter, code int, err error) {
	var shed *ShedError
	if errors.As(err, &shed) {
		// Overload rejections tell the client when to come back and how
		// full the queue was, so backoff can be informed instead of blind.
		secs := int(math.Ceil(shed.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		WriteJSON(w, code, map[string]any{
			"error":               err.Error(),
			"reason":              shed.Reason,
			"retry_after_seconds": secs,
			"queue_depth":         shed.QueueDepth,
			"limit":               shed.Limit,
		})
		return
	}
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
