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
//	POST   /v1/screens            submit a ScreenRequest     -> 202 JobView
//	                              (Idempotency-Key header: resubmitting an
//	                              admitted key returns the original job, 200)
//	GET    /v1/screens            list jobs                  -> 200 [JobView]
//	GET    /v1/screens/{id}       job status + ranking       -> 200 JobView
//	                              (?limit=&offset= window the ranking;
//	                              no limit caps it at DefaultRankingLimit,
//	                              ranking_total reports the full length)
//	GET    /v1/screens/{id}/partial  completed-ligand ranking so far
//	                              -> 200 PartialView (same limit/offset
//	                              params; ?since=<cursor> returns only the
//	                              entries past the cursor, in completion
//	                              order, with the next cursor; ?wait=<dur>
//	                              holds the request until the job is
//	                              complete or terminal — the distributed
//	                              coordinator streams shard merges from it)
//	GET    /v1/screens/{id}/trace Chrome-trace-format job timeline -> 200
//	                              (also served as GET /jobs/{id}/trace;
//	                              load the payload in Perfetto or
//	                              chrome://tracing)
//	DELETE /v1/screens/{id}       cancel                     -> 202 JobView
//	                              (also served as DELETE /jobs/{id})
//	GET    /healthz               liveness                   -> 200 Stats
//	GET    /readyz                readiness (journal replayed, pool up,
//	                              not draining) -> 200 / 503
//	GET    /metrics               Prometheus text exposition -> 200
//
// Errors are {"error": "..."} with ErrQueueFull / ErrDeadlineUnmeetable
// -> 429, ErrDraining / ErrBreakerOpen -> 503, ErrStorageFull -> 507,
// ErrNotFound -> 404, ErrTerminal -> 409, bad requests -> 400, a body over
// MaxBodyBytes -> 413.
// Overload rejections (ShedError) additionally carry a Retry-After header
// and a structured body with reason, retry_after_seconds, queue_depth and
// limit.

// EpochHeader carries the distributed coordinator's fencing epoch on
// shard requests. Workers echo it verbatim so the coordinator's client
// can verify a response answers the epoch it asked under — a stale or
// replayed response from before a worker was declared dead and revived
// fails the echo check and is never merged.
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

// handlePartial serves the ranking of the ligands a job has completed so
// far — the coordinator's streaming-merge source. Terminal jobs serve
// their full set, so one polling loop covers a shard's whole lifecycle.
// The query is validated before the job is looked at.
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
	ready := s.Ready()
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
