package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"quanterference/internal/ml"
	"quanterference/internal/obs"
)

// model is the method set the served model types (*core.Framework and
// *forecast.Forecaster) share: what a lane needs to digest a model and
// shape-check a replacement.
type model interface {
	ExportWeights() [][]float64
	Dims() (int, int)
}

// snapshot is one loaded model with the digest computed from its weights.
// It is immutable once published, so whoever holds it — a batch, a reply, a
// handler stamping model_digest and labels from the model's bins — sees one
// consistent model version.
type snapshot[M model] struct {
	model  M
	digest string
}

// call is one enqueued request. resp is buffered so the batcher never blocks
// on a caller that gave up (context cancellation).
type call[M model, Q, A any] struct {
	in   Q
	resp chan reply[M, A]
	enq  time.Time
}

// reply answers one call and carries the snapshot that computed it.
type reply[M model, A any] struct {
	snap *snapshot[M]
	out  A
	err  error
}

// shared is what both lanes of one Server have in common: the batching
// limits, the admission gate, the stop signal, and the serve-wide metrics.
type shared struct {
	cfg Config

	gateMu   sync.RWMutex
	stopping bool
	inflight sync.WaitGroup
	stop     chan struct{} // closed by Shutdown once admissions drained

	mErrors  *obs.Counter
	mReloads *obs.Counter
	mBatches *obs.Counter
	hQueueNS *obs.Histogram
	hModelNS *obs.Histogram
	hTotalNS *obs.Histogram
}

// lane is one model slot and its batcher: the served snapshot, a bounded
// queue, and the single goroutine with the right to touch the model's
// scratch. A Server runs two lanes — predict over *core.Framework and
// forecast over *forecast.Forecaster — each with its own goroutine and
// queue, so forecast traffic never perturbs /predict.
type lane[M model, Q, A any] struct {
	*shared
	name    string                      // "predict" or "forecast", for error messages
	slot    atomic.Pointer[snapshot[M]] // nil while no model is loaded
	queue   chan *call[M, Q, A]
	done    chan struct{} // closed when the batcher exits
	noModel error         // returned while the slot is empty

	validate func(m M, in Q) error
	// run answers one batch from one model; outs is zeroed and as long as
	// ins. It is the only code that touches the model's scratch.
	run func(m M, ins []Q, outs []reply[M, A])

	mCount *obs.Counter
	gDepth *obs.Gauge
	hBatch *obs.Histogram

	ins  []Q           // batcher-only scratch
	outs []reply[M, A] // batcher-only scratch
}

func (l *lane[M, Q, A]) start() {
	l.queue = make(chan *call[M, Q, A], l.cfg.MaxInflight)
	l.done = make(chan struct{})
	go l.batcher()
}

// set publishes m without a shape check (the initial load).
func (l *lane[M, Q, A]) set(m M) {
	l.slot.Store(&snapshot[M]{model: m, digest: ml.WeightsDigest(m.ExportWeights())})
}

// swap atomically replaces the served model. In-flight batches keep the
// snapshot they loaded. Once a model serves, its replacement must have the
// same dims; the first load into an empty slot is unconstrained.
func (l *lane[M, Q, A]) swap(m M) error {
	if cur := l.slot.Load(); cur != nil {
		oldA, oldB := cur.model.Dims()
		newA, newB := m.Dims()
		if oldA != newA || oldB != newB {
			return fmt.Errorf("serve: %s reload shape %dx%d does not match served %dx%d",
				l.name, newA, newB, oldA, oldB)
		}
	}
	l.set(m)
	l.mReloads.Inc()
	return nil
}

// submit validates one request, admits it, queues it for the batcher, and
// waits for the reply, which names the snapshot that answered it.
func (l *lane[M, Q, A]) submit(ctx context.Context, in Q) (*snapshot[M], A, error) {
	var zero A
	start := time.Now()
	l.mCount.Inc()
	fail := func(err error) (*snapshot[M], A, error) {
		l.mErrors.Inc()
		return nil, zero, err
	}
	snap := l.slot.Load()
	if snap == nil {
		return fail(l.noModel)
	}
	if err := l.validate(snap.model, in); err != nil {
		return fail(err)
	}
	// Admission gate: taken read-side so Shutdown can atomically flip
	// stopping and then wait out everyone already admitted.
	l.gateMu.RLock()
	if l.stopping {
		l.gateMu.RUnlock()
		return fail(ErrShuttingDown)
	}
	l.inflight.Add(1)
	l.gateMu.RUnlock()
	defer l.inflight.Done()

	c := &call[M, Q, A]{in: in, resp: make(chan reply[M, A], 1), enq: start}
	select {
	case l.queue <- c:
		l.gDepth.Set(float64(len(l.queue)))
	default:
		return fail(fmt.Errorf("%w: %s queue full (%d)", ErrOverloaded, l.name, l.cfg.MaxInflight))
	}
	select {
	case r := <-c.resp:
		if r.err != nil {
			return fail(r.err)
		}
		l.hTotalNS.Observe(float64(time.Since(start)))
		return r.snap, r.out, nil
	case <-ctx.Done():
		// The batcher will still answer into the buffered channel; we just
		// stop waiting.
		return fail(ctx.Err())
	}
}

// batcher blocks for the first request, gathers more until MaxBatch or
// BatchWindow, and answers the whole batch from one snapshot. On shutdown it
// drains whatever is still queued before exiting, so every admitted request
// is answered. It runs even while the slot is empty (admission rejects
// requests until a model loads), so a first load needs no goroutine surgery.
func (l *lane[M, Q, A]) batcher() {
	defer close(l.done)
	for {
		var first *call[M, Q, A]
		select {
		case first = <-l.queue:
		case <-l.stop:
			drainQueue(l.queue, l.cfg.MaxBatch, l.runBatch)
			return
		}
		l.runBatch(gatherQueue(l.queue, first, l.cfg.MaxBatch, l.cfg.BatchWindow, l.stop))
	}
}

// runBatch answers one gathered batch. The snapshot is loaded once per
// batch and travels with every reply: a concurrent swap affects only later
// batches, and a reply is always stamped with the model that computed it.
// Admission saw a loaded slot and swaps never empty it, so snap is non-nil.
func (l *lane[M, Q, A]) runBatch(batch []*call[M, Q, A]) {
	snap := l.slot.Load()
	ins := l.ins[:0]
	for _, c := range batch {
		ins = append(ins, c.in)
		l.hQueueNS.Observe(float64(time.Since(c.enq)))
	}
	if cap(l.outs) < len(batch) {
		l.outs = make([]reply[M, A], len(batch))
	}
	outs := l.outs[:len(batch)]
	clear(outs)
	l.ins = ins[:0]

	start := time.Now()
	l.run(snap.model, ins, outs)
	l.hModelNS.Observe(float64(time.Since(start)))
	l.mBatches.Inc()
	l.hBatch.Observe(float64(len(batch)))

	for i, c := range batch {
		outs[i].snap = snap
		c.resp <- outs[i]
	}
}

// gatherQueue collects requests after the first until the batch is full, the
// batch window elapses, or shutdown begins (which flushes immediately —
// queued stragglers are answered by drainQueue).
func gatherQueue[R any](queue <-chan R, first R, maxBatch int, window time.Duration, stop <-chan struct{}) []R {
	batch := append(make([]R, 0, maxBatch), first)
	timer := time.NewTimer(window)
	defer timer.Stop()
	for len(batch) < maxBatch {
		select {
		case req := <-queue:
			batch = append(batch, req)
		case <-timer.C:
			return batch
		case <-stop:
			return batch
		}
	}
	return batch
}

// drainQueue answers everything still queued at shutdown, in full batches.
// Requests whose callers already gave up (context canceled between enqueue
// and gather) are still answered into their buffered channels, so no sender
// ever blocks and no request is dropped.
func drainQueue[R any](queue <-chan R, maxBatch int, run func([]R)) {
	for {
		batch := make([]R, 0, maxBatch)
		for len(batch) < maxBatch {
			select {
			case req := <-queue:
				batch = append(batch, req)
			default:
				if len(batch) > 0 {
					run(batch)
				}
				return
			}
		}
		run(batch)
	}
}
