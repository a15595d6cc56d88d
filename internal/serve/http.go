package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"syscall"

	"quanterference/internal/monitor/window"
)

// APIVersion names the HTTP surface mounted under /v1/. Replicas advertise
// it on /v1/healthz; the fleet coordinator refuses to route to replicas
// whose version differs from the fleet's.
const APIVersion = "v1"

// PredictRequest is the /v1/predict request body: one raw (unscaled) window
// matrix, [targets][features], exactly what core.Framework.Predict takes.
type PredictRequest struct {
	Matrix [][]float64 `json:"matrix"`
}

// PredictResponse is the /v1/predict response body.
type PredictResponse struct {
	// Class is the predicted degradation class.
	Class int `json:"class"`
	// Label is the class's human-readable bin name (e.g. ">=2x").
	Label string `json:"label"`
	// Probs is the class probability distribution.
	Probs []float64 `json:"probs"`
	// ModelDigest identifies the framework weights that answered
	// (ml.WeightsDigest) — the consistency stamp the fleet layer checks.
	ModelDigest string `json:"model_digest"`
}

// ForecastRequest is the /v1/forecast request body: the last History raw
// window matrices, oldest first — [windows][targets][features].
type ForecastRequest struct {
	History [][][]float64 `json:"history"`
}

// ForecastResponse is the /v1/forecast response body: one predicted class
// and distribution per horizon, plus the derived time-to-degradation.
type ForecastResponse struct {
	// Horizons, Classes, Labels, and Probs are parallel: Classes[i] is the
	// predicted slowdown class Horizons[i] windows ahead.
	Horizons []int       `json:"horizons"`
	Classes  []int       `json:"classes"`
	Labels   []string    `json:"labels"`
	Probs    [][]float64 `json:"probs"`
	// LeadWindows is the smallest horizon predicting degradation (0 = none).
	LeadWindows int  `json:"lead_windows"`
	Degrading   bool `json:"degrading"`
	// ModelDigest identifies the forecaster weights that answered.
	ModelDigest string `json:"model_digest"`
}

// ShadowEvaluator is the slice of a shadow evaluator (internal/shadow's
// *Evaluator) the serving layer drives: the mirror tap the predict batcher
// calls right before answering each request, plus the scoreboard /v1/shadow
// serves. The interface lives here — rather than serve importing
// internal/shadow — because the evaluator layers above the serving layer
// exactly like the fleet coordinator does (and the continuous-learning
// layer, which the shadow gate builds on, already imports serve).
type ShadowEvaluator interface {
	// Mirror must be safe for concurrent callers and must never block: the
	// batcher calls it on the serving path.
	Mirror(mat window.Matrix, class int)
	// Sync drains the async mirror queue so the scoreboard reflects every
	// reply the caller has already received.
	Sync()
	// Status snapshots the champion/challenger scoreboard.
	Status() ShadowStatus
}

// ShadowCandidate is one candidate's row in the /v1/shadow scoreboard.
type ShadowCandidate struct {
	Name    string `json:"name"`
	Samples int    `json:"samples"`
	// Accuracy and CE are the candidate's cumulative accuracy and mean
	// cross-entropy over the labeled mirrored traffic this epoch.
	Accuracy float64 `json:"accuracy"`
	CE       float64 `json:"ce"`
}

// ShadowStatus is the /v1/shadow response body: the live
// champion/challenger scoreboard plus the mirror-plumbing counters.
type ShadowStatus struct {
	Champion    ShadowCandidate   `json:"champion"`
	Challengers []ShadowCandidate `json:"challengers,omitempty"`
	// Mirrored and Dropped count mirror offers accepted / shed by the
	// bounded queue; QueueDepth is the queue's current backlog.
	Mirrored   uint64 `json:"mirrored"`
	Dropped    uint64 `json:"dropped"`
	QueueDepth int    `json:"queue_depth"`
	// Pending counts mirrored events still awaiting their delayed label.
	Pending int `json:"pending"`
	// Labeled, Unmatched, and Evicted count labels scored, labels with no
	// mirrored event to join, and pending events evicted unlabeled.
	Labeled   uint64 `json:"labeled"`
	Unmatched uint64 `json:"unmatched"`
	Evicted   uint64 `json:"evicted"`
	// Mismatches counts labeled events whose mirrored reply disagreed with
	// the evaluator's champion clone (a stale-scoreboard signal).
	Mismatches uint64 `json:"mirror_mismatches"`
	// Verdicts counts gate evaluations this epoch.
	Verdicts uint64 `json:"verdicts"`
	// MinSamples and Margin are the gate's current promotion bar.
	MinSamples int     `json:"min_samples"`
	Margin     float64 `json:"margin"`
}

// Health is the /v1/healthz response body: liveness, the API version, the
// served weight digests, and the loaded model's shape — enough for a client
// to validate inputs, reconstruct label.Bins, and for a fleet coordinator to
// refuse mixed-version replicas.
type Health struct {
	Status string `json:"status"`
	// APIVersion is the route version this replica speaks (serve.APIVersion).
	APIVersion string `json:"api_version"`
	// ModelDigest / ForecasterDigest identify the served weights
	// (ml.WeightsDigest); ForecasterDigest is absent when forecasting is
	// disabled.
	ModelDigest      string `json:"model_digest"`
	ForecasterDigest string `json:"forecaster_digest,omitempty"`
	// Targets and Features describe the expected matrix shape (Targets 0
	// means any row count).
	Targets  int `json:"targets"`
	Features int `json:"features"`
	Classes  int `json:"classes"`
	// Thresholds are the degradation bin edges (label.Bins.Thresholds).
	Thresholds []float64 `json:"thresholds"`
	// ForecastHistory and ForecastHorizons describe the loaded forecaster
	// (/v1/forecast input shape); both absent when forecasting is disabled.
	ForecastHistory  int   `json:"forecast_history,omitempty"`
	ForecastHorizons []int `json:"forecast_horizons,omitempty"`
}

// retryAfterSeconds is the backoff hint attached to 503 responses (body and
// Retry-After header): the queue drains within one batch window at healthy
// load, so one second is a conservative round number.
const retryAfterSeconds = 1

// maxBodyBytes caps every request body the API decodes (predict, forecast,
// reload); a larger body answers 413. Legitimate bodies, one window matrix
// or a forecaster's few-window history, are tens of kilobytes at most.
const maxBodyBytes = 1 << 20

// jsonSpace is the JSON whitespace set: a reload body of nothing else is
// empty.
const jsonSpace = " \t\r\n"

// reloadRequest optionally overrides the reload path.
type reloadRequest struct {
	Path string `json:"path"`
}

// Error codes carried in error response bodies so typed clients can map an
// HTTP failure back to the server-side sentinel without parsing prose.
const (
	codeOverloaded   = "overloaded"
	codeShuttingDown = "shutting_down"
	codeBadInput     = "bad_input"
	codeNoForecaster = "no_forecaster"
	codeNoShadow     = "no_shadow"
)

type errorResponse struct {
	Error string `json:"error"`
	// Code names the sentinel behind the failure (one of the code*
	// constants); empty for untyped errors.
	Code string `json:"code,omitempty"`
	// RetryAfterSeconds hints when a shed (503) request is worth retrying —
	// the body-level mirror of the Retry-After header, so clients that only
	// see the decoded JSON still get the hint.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// Handler returns the server's versioned HTTP API:
//
//	POST /v1/predict       {"matrix": [[...], ...]} -> PredictResponse
//	POST /v1/forecast      {"history": [[[...], ...], ...]} -> ForecastResponse
//	GET  /v1/healthz       -> Health
//	GET  /v1/stats         -> obs snapshot JSON (counters, batch histogram, latencies)
//	GET  /v1/shadow        -> shadow.Status (champion/challenger scoreboard; 404 without a shadow evaluator)
//	POST /v1/admin/reload  {"path": "..."} (optional body) -> {"reloaded": true}
//
// Unversioned paths are not mounted (404).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	v1 := "/" + APIVersion
	mux.HandleFunc(v1+"/predict", s.handlePredict)
	mux.HandleFunc(v1+"/forecast", s.handleForecast)
	mux.HandleFunc(v1+"/healthz", s.handleHealthz)
	mux.HandleFunc(v1+"/stats", s.handleStats)
	mux.HandleFunc(v1+"/shadow", s.handleShadow)
	mux.HandleFunc(v1+"/admin/reload", s.handleReload)
	return mux
}

// writeServeError maps a Predict/Forecast error to its HTTP status and typed
// body (the code constants clients rely on).
func writeServeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	body := errorResponse{Error: err.Error()}
	switch {
	case errors.Is(err, ErrBadInput):
		status = http.StatusBadRequest
		body.Code = codeBadInput
	case errors.Is(err, ErrNoForecaster):
		status = http.StatusNotFound
		body.Code = codeNoForecaster
	case errors.Is(err, ErrNoShadow):
		status = http.StatusNotFound
		body.Code = codeNoShadow
	case errors.Is(err, ErrOverloaded):
		status = http.StatusServiceUnavailable
		body.Code = codeOverloaded
		body.RetryAfterSeconds = retryAfterSeconds
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
		body.Code = codeShuttingDown
		body.RetryAfterSeconds = retryAfterSeconds
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, body)
}

// writeJSON encodes v before writing the status line, so a value that cannot
// be encoded (a NaN, say) becomes a 500 with an error body rather than a
// 200 with an empty one. It returns the encode error.
func writeJSON(w http.ResponseWriter, status int, v interface{}) error {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	if err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		json.NewEncoder(&buf).Encode(errorResponse{Error: "encode response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
	return err
}

// respond is writeJSON for replies carrying model output or other floats,
// counting an encode failure in serve/errors.
func (s *Server) respond(w http.ResponseWriter, status int, v interface{}) {
	if writeJSON(w, status, v) != nil {
		s.mErrors.Inc()
	}
}

// decodeBody reads at most maxBodyBytes of a POST body and decodes it into
// v. A wrong method, an oversized body (413) or malformed JSON (400) is
// answered here, and decodeBody returns false. An empty body leaves v
// untouched when allowEmpty is set and is malformed otherwise.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}, allowEmpty bool) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)})
		return false
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "read body: " + err.Error()})
		return false
	case allowEmpty && len(bytes.Trim(body, jsonSpace)) == 0:
		return true
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	snap, p, err := s.predictLane.submit(r.Context(), window.Matrix(req.Matrix))
	if err != nil {
		writeServeError(w, err)
		return
	}
	s.respond(w, http.StatusOK, PredictResponse{
		Class: p.class, Label: snap.model.Bins.Name(p.class), Probs: p.probs,
		ModelDigest: snap.digest,
	})
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	var req ForecastRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	hist := make([]window.Matrix, len(req.History))
	for i, mat := range req.History {
		hist[i] = window.Matrix(mat)
	}
	snap, pred, err := s.forecastLane.submit(r.Context(), hist)
	if err != nil {
		writeServeError(w, err)
		return
	}
	labels := make([]string, len(pred.Classes))
	for i, c := range pred.Classes {
		labels[i] = snap.model.Bins.Name(c)
	}
	s.respond(w, http.StatusOK, ForecastResponse{
		Horizons:    pred.Horizons,
		Classes:     pred.Classes,
		Labels:      labels,
		Probs:       pred.Probs,
		LeadWindows: pred.LeadWindows,
		Degrading:   pred.Degrading(),
		ModelDigest: snap.digest,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.predictLane.slot.Load()
	fw := snap.model
	nTargets, nFeat := fw.Dims()
	h := Health{
		Status:      "ok",
		APIVersion:  APIVersion,
		ModelDigest: snap.digest,
		Targets:     nTargets,
		Features:    nFeat,
		Classes:     fw.Classes(),
		Thresholds:  fw.Bins.Thresholds,
	}
	if fsnap := s.forecastLane.slot.Load(); fsnap != nil {
		h.ForecastHistory, _ = fsnap.model.Dims()
		h.ForecastHorizons = fsnap.model.Horizons()
		h.ForecasterDigest = fsnap.digest
	}
	s.respond(w, http.StatusOK, h)
}

func (s *Server) handleShadow(w http.ResponseWriter, r *http.Request) {
	ev := s.cfg.Shadow
	if ev == nil {
		writeServeError(w, ErrNoShadow)
		return
	}
	// Drain the mirror queue first so the scoreboard reflects every reply
	// the caller has already seen (the batcher mirrors before answering).
	ev.Sync()
	s.respond(w, http.StatusOK, ev.Status())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.Stats().WriteJSON(w)
}

// handleReload answers a failed reload with reloadStatus; the old model keeps
// serving either way.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	// An empty body means "reload the configured path"; a malformed one is
	// the caller's mistake, not a request for the default.
	var req reloadRequest
	if !decodeBody(w, r, &req, true) {
		return
	}
	if err := s.Reload(req.Path); err != nil {
		writeJSON(w, reloadStatus(err), errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"reloaded": true})
}

// reloadStatus maps a Reload failure to its HTTP status: 404 when the named
// file does not exist, 500 when the fault is the replica's (no configured
// path, or a file it may not or cannot read), and 400 when the caller named
// something that cannot be served (a directory, not a framework, or a
// different input shape).
func reloadStatus(err error) int {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return http.StatusNotFound
	case errors.Is(err, errNoModelPath), errors.Is(err, fs.ErrPermission), errors.Is(err, syscall.EIO):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}
