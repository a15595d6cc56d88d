package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/forecast"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
)

// The tests below pin the shutdown edges around abandoned requests. The
// admission gate means Shutdown only closes the stop channel once every
// caller still inside Predict/Forecast has returned — so the requests a
// closing server finds mid-gather or queued are exactly those whose callers
// gave up (context canceled between enqueue and answer). Each one must still
// be answered into its buffered channel exactly once: a drop would leak the
// response a late reader expects, a double-send would block the batcher and
// hang Shutdown. Run under -race in make verify.

// enqueueAbandoned queues a call the way a ctx-canceled submit leaves it:
// enqueued, caller gone, not registered with the inflight gate.
func enqueueAbandoned[M model, Q, A any](l *lane[M, Q, A], in Q) *call[M, Q, A] {
	c := &call[M, Q, A]{in: in, resp: make(chan reply[M, A], 1), enq: time.Now()}
	l.queue <- c
	return c
}

// histogram pulls one named serve histogram out of a snapshot.
func histogram(t *testing.T, snap *obs.Snapshot, name string) obs.HistogramValue {
	t.Helper()
	for _, hv := range snap.Histograms {
		if hv.Key.Component == "serve" && hv.Key.Name == name {
			return hv
		}
	}
	t.Fatalf("histogram serve/%s not in snapshot", name)
	return obs.HistogramValue{}
}

// TestShutdownFlushesPartialGather pins the stop-during-gather edge: with a
// batch window far longer than the test and fewer requests than MaxBatch,
// the batcher sits in gather holding a partial batch of abandoned requests
// when Shutdown closes stop. The flush must answer that batch exactly once —
// one response per request, one batch observed, no re-observe by drain.
func TestShutdownFlushesPartialGather(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s := New(fw, Config{MaxBatch: 32, BatchWindow: time.Minute, MaxInflight: 64})

	const n = 5
	reqs := make([]*call[*core.Framework, window.Matrix, prediction], n)
	for i := range reqs {
		reqs[i] = enqueueAbandoned(s.predictLane, mats[i%len(mats)])
	}
	// Wait until the batcher has pulled all n into its gather batch; the
	// minute-long window then parks it until stop.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.predictLane.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("batcher never picked up the queue")
		}
		time.Sleep(time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	for i, req := range reqs {
		select {
		case r := <-req.resp:
			if len(r.out.probs) != 2 {
				t.Fatalf("request %d malformed response %+v", i, r)
			}
		default:
			t.Fatalf("request %d never answered", i)
		}
		select {
		case <-req.resp:
			t.Fatalf("request %d answered twice", i)
		default:
		}
	}
	hb := histogram(t, s.Stats(), "batch_size")
	if hb.Count != 1 || hb.Sum != n {
		t.Fatalf("batch_size count=%d sum=%g, want one batch of %d", hb.Count, hb.Sum, n)
	}
}

// TestShutdownDrainAnswersQueuedStragglers pins the drain edge: requests
// still sitting in the queue when stop closes (Shutdown racing the batcher's
// pickup) are answered by gather's flush and drain between them — every
// straggler exactly once, in MaxBatch-sized cuts.
func TestShutdownDrainAnswersQueuedStragglers(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s := New(fw, Config{MaxBatch: 2, BatchWindow: time.Minute, MaxInflight: 64})

	const n = 7
	reqs := make([]*call[*core.Framework, window.Matrix, prediction], n)
	for i := range reqs {
		reqs[i] = enqueueAbandoned(s.predictLane, mats[i%len(mats)])
	}
	// Shut down immediately: no inflight callers, so stop closes while most
	// (racily, possibly all) of the queue is still unclaimed.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	for i, req := range reqs {
		select {
		case r := <-req.resp:
			if len(r.out.probs) != 2 {
				t.Fatalf("straggler %d malformed response %+v", i, r)
			}
		default:
			t.Fatalf("straggler %d never answered", i)
		}
		select {
		case <-req.resp:
			t.Fatalf("straggler %d answered twice", i)
		default:
		}
	}
	hb := histogram(t, s.Stats(), "batch_size")
	if hb.Sum != n {
		t.Fatalf("batch_size Sum = %g, want %d (each request observed exactly once)", hb.Sum, n)
	}
	// MaxBatch 2 forces ceil(7/2) = 4 cuts at minimum, however the
	// gather/drain race resolves.
	if hb.Count < 4 {
		t.Fatalf("batch_size Count = %d, want >= 4 cuts of <= 2", hb.Count)
	}
}

// TestShutdownForecastStragglers is the forecast-queue twin: abandoned
// forecast requests parked in the forecast batcher's gather are flushed
// exactly once with real predictions.
func TestShutdownForecastStragglers(t *testing.T) {
	fw, _ := trainedFramework(t, 3, 5)
	fc := testForecaster(4, 5, []int{1, 2})
	s := New(fw, Config{Forecaster: fc, MaxBatch: 32, BatchWindow: time.Minute, MaxInflight: 64})
	hists := testHistories(5, 4, 3, 5)

	reqs := make([]*call[*forecast.Forecaster, []window.Matrix, *forecast.Prediction], len(hists))
	for i := range reqs {
		reqs[i] = enqueueAbandoned(s.forecastLane, hists[i])
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(s.forecastLane.queue) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("forecast batcher never picked up the queue")
		}
		time.Sleep(time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	for i, req := range reqs {
		select {
		case r := <-req.resp:
			if r.err != nil || r.out == nil || len(r.out.Horizons) != 2 {
				t.Fatalf("forecast straggler %d: %+v", i, r)
			}
		default:
			t.Fatalf("forecast straggler %d never answered", i)
		}
		select {
		case <-req.resp:
			t.Fatalf("forecast straggler %d answered twice", i)
		default:
		}
	}
	hb := histogram(t, s.Stats(), "forecast_batch_size")
	if hb.Count != 1 || hb.Sum != float64(len(reqs)) {
		t.Fatalf("forecast_batch_size count=%d sum=%g, want one batch of %d", hb.Count, hb.Sum, len(reqs))
	}
}

// TestShutdownWithCanceledCallers drives the caller-side path end to end:
// callers whose contexts are already dead pass admission, enqueue, and
// return ctx.Err — and Shutdown still answers every orphaned request without
// hanging or double-observing.
func TestShutdownWithCanceledCallers(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s := New(fw, Config{MaxBatch: 8, BatchWindow: time.Minute, MaxInflight: 64})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const abandoned = 6
	for i := 0; i < abandoned; i++ {
		if _, _, err := s.Predict(ctx, mats[i%len(mats)]); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled caller %d: %v", i, err)
		}
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	snap := s.Stats()
	hb := histogram(t, snap, "batch_size")
	// However the batcher's pickup raced the enqueues, each orphaned request
	// is observed exactly once across the gather flush and drain.
	if hb.Sum != abandoned {
		t.Fatalf("batch_size Sum = %g, want %d", hb.Sum, abandoned)
	}
	if v, _ := snap.Counter("serve", "", "requests"); v != abandoned {
		t.Fatalf("requests = %d, want %d", v, abandoned)
	}
	if _, _, err := s.Predict(context.Background(), mats[0]); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown Predict: %v", err)
	}
}
