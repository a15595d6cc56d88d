// Package serve is the online inference service around a trained
// core.Framework — the deployment shape of the paper's Figure 2 runtime
// path, where one prediction service answers window-classification queries
// from many monitoring agents at once.
//
// Concurrency model: the Framework's Predict/PredictBatch reuse internal
// scratch and are not goroutine-safe, so the server funnels every prediction
// through a single batcher goroutine. Concurrent requests are gathered into
// one PredictBatch call, bounded by MaxBatch (size) and BatchWindow
// (latency). PredictBatch is bit-identical to per-input Predict, so batching
// composition never changes an answer — a property the tests pin down under
// -race with dozens of concurrent clients.
//
// The predict and forecast paths are one generic lane instantiated twice:
// each lane owns an atomic snapshot of its model and weight digest, a
// queue, and a batcher goroutine, behind one shared admission gate. Hot
// reload publishes a new snapshot; a batch answers from the snapshot it
// loaded and every reply carries that snapshot, so a reply is always
// stamped with the digest and bins of the model that computed it, and a
// reload never drops or corrupts a request. Shutdown closes the admission
// gate, waits for in-flight requests to drain through the batchers, then
// stops them.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/forecast"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
)

// Sentinel errors returned by Server.Predict (and mapped to HTTP statuses by
// the handler: 503, 503, 400 respectively). Match with errors.Is.
var (
	// ErrOverloaded reports that the request queue is full (backpressure);
	// the client should retry with backoff.
	ErrOverloaded = errors.New("serve: server overloaded")

	// ErrShuttingDown reports that the server no longer admits requests.
	ErrShuttingDown = errors.New("serve: server shutting down")

	// ErrBadInput reports an input whose shape does not match the loaded
	// model, or on which the model's probabilities come out non-finite.
	ErrBadInput = errors.New("serve: bad input matrix")

	// ErrNoForecaster reports a Forecast call on a server that has no
	// forecaster loaded (Config.Forecaster nil and no ReloadForecaster yet).
	ErrNoForecaster = errors.New("serve: no forecaster loaded")

	// ErrNoShadow reports a /v1/shadow request on a server that mirrors no
	// traffic (Config.Shadow nil).
	ErrNoShadow = errors.New("serve: no shadow evaluator attached")
)

// errNoModelPath reports a Reload with no path on a server started without
// Config.ModelPath.
var errNoModelPath = errors.New("serve: no model path to reload from")

// Config tunes the batching service. The zero value is usable: every field
// defaults to the values quantserve ships with.
type Config struct {
	// MaxBatch caps how many requests one PredictBatch call carries
	// (default 32).
	MaxBatch int
	// BatchWindow is how long the batcher waits for more requests after the
	// first one arrives (default 2ms). Smaller trades throughput for
	// latency.
	BatchWindow time.Duration
	// MaxInflight bounds the request queue; admissions beyond it fail fast
	// with ErrOverloaded (default 256).
	MaxInflight int
	// ModelPath is the framework file Reload() re-reads. Optional; reloads
	// may also name an explicit path.
	ModelPath string
	// Forecaster optionally serves /forecast alongside /predict: the
	// early-warning sequence head answering "slowdown in k windows?" from the
	// last History window matrices. Nil disables forecasting (requests get
	// ErrNoForecaster) until ReloadForecaster loads one. Like the framework,
	// ownership transfers to the server.
	Forecaster *forecast.Forecaster
	// Shadow optionally mirrors every answered prediction into a shadow
	// evaluator (*shadow.Evaluator in practice): the batcher taps Mirror —
	// one non-blocking channel send — right before it answers each request,
	// so challengers are scored on exactly the traffic the champion served
	// while the champion's latency and allocations stay untouched. Nil
	// disables mirroring; /v1/shadow then returns ErrNoShadow. Construct the
	// evaluator with this same Sink to surface its counters on /v1/stats.
	Shadow ShadowEvaluator
	// Sink receives serving metrics (request/error/reload counters, the
	// batch-size histogram, per-stage latency histograms). Nil allocates a
	// private sink so Stats always works.
	Sink *obs.Sink
}

func (c *Config) applyDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.Sink == nil {
		c.Sink = obs.New()
	}
}

// prediction is one classifier answer; probs is the caller's to keep.
type prediction struct {
	class int
	probs []float64
}

// Server batches concurrent predictions and forecasts through one lane per
// model kind. Create with New, serve HTTP via Handler, stop with Shutdown.
type Server struct {
	*shared
	stopOnce sync.Once

	predictLane  *lane[*core.Framework, window.Matrix, prediction]
	forecastLane *lane[*forecast.Forecaster, []window.Matrix, *forecast.Prediction]
}

// New starts a serving loop around fw. The framework must not be used
// directly (Predict/PredictBatch) while the server owns it.
func New(fw *core.Framework, cfg Config) *Server {
	if fw == nil {
		panic("serve: nil framework")
	}
	cfg.applyDefaults()
	sink := cfg.Sink
	sh := &shared{
		cfg:      cfg,
		stop:     make(chan struct{}),
		mErrors:  sink.Counter("serve", "", "errors"),
		mReloads: sink.Counter("serve", "", "reloads"),
		mBatches: sink.Counter("serve", "", "batches"),
		hQueueNS: sink.Histogram("serve", "", "queue_wait_ns", obs.TimeBuckets()),
		hModelNS: sink.Histogram("serve", "", "model_ns", obs.TimeBuckets()),
		hTotalNS: sink.Histogram("serve", "", "total_ns", obs.TimeBuckets()),
	}
	s := &Server{shared: sh}
	s.predictLane = &lane[*core.Framework, window.Matrix, prediction]{
		shared: sh, name: "predict",
		validate: validate, run: s.runPredict,
		mCount: sink.Counter("serve", "", "requests"),
		gDepth: sink.Gauge("serve", "", "queue_depth"),
		hBatch: sink.Histogram("serve", "", "batch_size", obs.LinearBuckets(1, 1, cfg.MaxBatch)),
	}
	s.forecastLane = &lane[*forecast.Forecaster, []window.Matrix, *forecast.Prediction]{
		shared: sh, name: "forecast", noModel: ErrNoForecaster,
		validate: validateHistory, run: runForecast,
		mCount: sink.Counter("serve", "", "forecasts"),
		gDepth: sink.Gauge("serve", "", "forecast_queue_depth"),
		hBatch: sink.Histogram("serve", "", "forecast_batch_size", obs.LinearBuckets(1, 1, cfg.MaxBatch)),
	}
	s.predictLane.set(fw)
	if cfg.Forecaster != nil {
		s.forecastLane.set(cfg.Forecaster)
	}
	s.predictLane.start()
	s.forecastLane.start()
	return s
}

// ModelDigest returns the served framework's weight digest — the model
// version identity stamped on every /v1/predict reply and /v1/healthz.
func (s *Server) ModelDigest() string { return s.predictLane.slot.Load().digest }

// ForecasterDigest returns the served forecaster's weight digest, empty when
// forecasting is disabled.
func (s *Server) ForecasterDigest() string {
	if snap := s.forecastLane.slot.Load(); snap != nil {
		return snap.digest
	}
	return ""
}

// Framework returns the currently served framework (hot-reload aware).
func (s *Server) Framework() *core.Framework { return s.predictLane.slot.Load().model }

// Forecaster returns the currently served forecaster, nil when forecasting
// is not enabled.
func (s *Server) Forecaster() *forecast.Forecaster {
	if snap := s.forecastLane.slot.Load(); snap != nil {
		return snap.model
	}
	return nil
}

// Shadow returns the attached shadow evaluator, nil when the server mirrors
// no traffic.
func (s *Server) Shadow() ShadowEvaluator { return s.cfg.Shadow }

// Stats snapshots the serving metrics.
func (s *Server) Stats() *obs.Snapshot { return s.cfg.Sink.Snapshot() }

// Predict classifies one raw window matrix, transparently batched with
// whatever other requests are in flight. The returned probs slice is the
// caller's to keep. Safe for any number of concurrent callers.
func (s *Server) Predict(ctx context.Context, mat window.Matrix) (class int, probs []float64, err error) {
	_, p, err := s.predictLane.submit(ctx, mat)
	return p.class, p.probs, err
}

// Forecast predicts slowdown ahead of time from the last History raw window
// matrices (oldest first), batched through the forecast lane the same way
// Predict batches through the predict lane. The returned Prediction is the
// caller's to keep. Safe for any number of concurrent callers; returns
// ErrNoForecaster when the server has no forecaster loaded.
func (s *Server) Forecast(ctx context.Context, history []window.Matrix) (*forecast.Prediction, error) {
	_, p, err := s.forecastLane.submit(ctx, history)
	return p, err
}

// runPredict classifies one batch with one PredictBatch call. Each answer
// is mirrored into the shadow tap before its reply is sent — one
// non-blocking channel send or a counted drop — so a received reply
// guarantees the evaluator can already see the event (the happens-before
// edge the shadow determinism suite leans on) while the champion never
// waits. Non-finite probabilities (an input beyond what the scaler can
// represent) answer ErrBadInput and are not mirrored.
func (s *Server) runPredict(fw *core.Framework, mats []window.Matrix, outs []reply[*core.Framework, prediction]) {
	cls, probs := fw.PredictBatch(mats)
	for i, mat := range mats {
		if !finite(probs[i]) {
			outs[i].err = fmt.Errorf("%w: class probabilities are not finite", ErrBadInput)
			continue
		}
		if s.cfg.Shadow != nil {
			s.cfg.Shadow.Mirror(mat, cls[i])
		}
		// Copy out: the framework reuses its probability rows on the next
		// batch, but the caller's slice must stay valid indefinitely.
		outs[i].out = prediction{class: cls[i], probs: append([]float64(nil), probs[i]...)}
	}
}

// runForecast answers one forecast batch. The Forecaster has no batched
// entry point (each request carries a whole history), so the batch's value
// is serializing scratch access and amortizing wakeups; predictions are
// freshly allocated per request, so handing them to callers is safe.
func runForecast(fc *forecast.Forecaster, hists [][]window.Matrix, outs []reply[*forecast.Forecaster, *forecast.Prediction]) {
	for i, hist := range hists {
		pred, err := fc.Predict(hist)
		if err == nil && !finite(pred.Probs...) {
			pred, err = nil, fmt.Errorf("%w: forecast probabilities are not finite", ErrBadInput)
		}
		outs[i].out, outs[i].err = pred, err
	}
}

// finite reports whether every value in rows is a real number.
func finite(rows ...[]float64) bool {
	for _, row := range rows {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// Reload atomically swaps in the framework at path (Config.ModelPath when
// empty) without disturbing in-flight requests: batches already cut keep the
// framework they loaded. Invalid files leave the old framework serving.
func (s *Server) Reload(path string) error {
	if path == "" {
		path = s.cfg.ModelPath
	}
	if path == "" {
		return errNoModelPath
	}
	fw, err := core.LoadFramework(path)
	if err != nil {
		return fmt.Errorf("serve: reload %s: %w", path, err)
	}
	return s.ReloadFramework(fw)
}

// ReloadFramework atomically swaps in an in-memory framework — the
// programmatic sibling of Reload's file-based path (SIGHUP, POST
// /v1/admin/reload), used by the continuous-learning loop (internal/online)
// and the fleet coordinator to promote a candidate without a disk
// round-trip. Batches already cut keep the snapshot they loaded, and each
// Framework owns its own scratch, so the swap never disturbs them.
//
// Ownership of fw transfers to the server; the caller must not call its
// Predict/PredictBatch afterwards (clone first if it needs an evaluation
// copy). A framework whose input shape differs from the currently served one
// is rejected, so a bad candidate can never strand the batcher mid-stream.
func (s *Server) ReloadFramework(fw *core.Framework) error {
	if fw == nil {
		return errors.New("serve: reload of nil framework")
	}
	return s.predictLane.swap(fw)
}

// ReloadForecaster atomically swaps in a forecaster — what the
// continuous-learning loop calls to promote a retrained sequence head, and
// how a server started without one turns forecasting on. Ownership of f
// transfers to the server. When a forecaster is already serving, the
// replacement must read the same history length and raw feature width; the
// first load is unconstrained.
func (s *Server) ReloadForecaster(f *forecast.Forecaster) error {
	if f == nil {
		return errors.New("serve: reload of nil forecaster")
	}
	return s.forecastLane.swap(f)
}

// Shutdown gracefully stops the server: new requests are refused with
// ErrShuttingDown, every admitted request is answered, then both batchers
// exit. Returns ctx.Err() if the context expires first (the batchers are
// left running so stragglers still get answers). Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gateMu.Lock()
	s.stopping = true
	s.gateMu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.stopOnce.Do(func() { close(s.stop) })
	for _, ch := range []<-chan struct{}{s.predictLane.done, s.forecastLane.done} {
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// validate checks mat against the loaded model's expected shape.
func validate(fw *core.Framework, mat window.Matrix) error {
	nTargets, nFeat := fw.Dims()
	if len(mat) == 0 {
		return fmt.Errorf("%w: empty matrix", ErrBadInput)
	}
	if nTargets > 0 && len(mat) != nTargets {
		return fmt.Errorf("%w: %d rows, model expects %d targets", ErrBadInput, len(mat), nTargets)
	}
	for t, row := range mat {
		if len(row) != nFeat {
			return fmt.Errorf("%w: row %d has %d features, model expects %d",
				ErrBadInput, t, len(row), nFeat)
		}
	}
	return nil
}

// validateHistory checks a forecast history against the loaded forecaster's
// expected shape: History windows, each a non-empty matrix of nFeat-wide
// rows (any row count — pooling collapses targets).
func validateHistory(fc *forecast.Forecaster, history []window.Matrix) error {
	hLen, nFeat := fc.Dims()
	if len(history) != hLen {
		return fmt.Errorf("%w: %d windows, forecaster expects %d", ErrBadInput, len(history), hLen)
	}
	for i, mat := range history {
		if len(mat) == 0 {
			return fmt.Errorf("%w: window %d is empty", ErrBadInput, i)
		}
		for t, row := range mat {
			if len(row) != nFeat {
				return fmt.Errorf("%w: window %d row %d has %d features, forecaster expects %d",
					ErrBadInput, i, t, len(row), nFeat)
			}
		}
	}
	return nil
}
