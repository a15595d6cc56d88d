package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/dataset"
	"quanterference/internal/fleet"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
	"quanterference/internal/obs"
	"quanterference/internal/serve"
	"quanterference/internal/shadow"
)

// Serving workload shape. Matrices have the real window shape (six OSTs
// plus the MDT, every window feature), so the model cost is the deployed
// one; their values are synthetic and seeded.
const (
	serveTargets  = 7
	serveReplicas = 2
	hotWindows    = 64   // repeated windows: the same matrix served again and again
	uniqueWindows = 8192 // each sent at most once per pass
	histories     = 256  // forecast histories, built from the hot windows
	forecastEvery = 8    // about one request in eight is a forecast
	labelDelay    = 20 * time.Millisecond
	promoteEvery  = 500 * time.Millisecond
	// depthSampleEvery is how often the replicas' queue-depth gauges are
	// read for serve.queue_depth_max.
	depthSampleEvery = 10 * time.Millisecond
	// batchWindow replaces serve's 2 ms default gather window: with at most
	// two requests in flight a batch never fills, so the default would add
	// its full 2 ms to every request and cap the pair of senders at about
	// 650 req/s.
	batchWindow = 250 * time.Microsecond
	// latencyLimit is the p99 a rate must meet, from due time, with no
	// growing backlog, to count toward max_rate_rps.
	latencyLimit = 25 * time.Millisecond
)

// serveRates are the fixed offered rates (req/s), nominal first. The other
// rates span capacity (about 1200 req/s with two senders) from below and
// above; each sends overRateRequests, enough for a p99 with ten samples
// beyond it. The nominal rate gets the rest of the measured time, so its
// forecast tail (one request in eight) also has a p99.
var serveRates = []float64{nominalRate, 900, 1200, 1600, 2200}

const (
	nominalRate      = 550.0
	overRateRequests = 1100
)

// Chrome-trace rows of the side goroutines; senders use rows 0 and 1.
const (
	tidLabels = 100 + iota
	tidPromote
	tidPhases
)

// maxLag abandons a phase's remaining requests once the generator runs this
// far behind: the rate is past capacity.
const maxLag = 10 * latencyLimit

type serveInstance struct {
	seed     int64
	fws      [2]*core.Framework // the two frameworks promotions alternate between
	digests  [2]string
	fcDigest string
	refs     map[string][][]float64 // model digest -> probs per pool matrix
	fcRefs   [][][]float64          // forecast probs per history
	pool     []window.Matrix        // hot windows first, then unique ones
	degr     []float64              // ground-truth degradation per pool matrix
	hists    [][]window.Matrix
	ev       *shadow.Evaluator
	servers  []*serve.Server
	https    []*httptest.Server
	coord    *fleet.Coordinator
	next     int // next promotion target (index into fws)
	pass     int
}

// synthCorpus is a labelled corpus in the window shape: runs of 40 windows
// that turn degraded part-way, so both the classifier and the forecaster's
// lead-labelled heads see both classes.
func synthCorpus(rng *rand.Rand) *dataset.Dataset {
	names := window.FeatureNames()
	ds := dataset.New(names, serveTargets, 2)
	for run := 0; run < 8; run++ {
		turn := 10 + rng.Intn(20)
		for w := 0; w < 40; w++ {
			label := 0
			if w >= turn {
				label = 1
			}
			ds.Add(&dataset.Sample{
				Workload: "synthetic", Run: fmt.Sprintf("run%d", run), Window: w,
				Label: label, Degradation: 1 + 2*float64(label),
				Vectors: synthMatrix(rng, label),
			})
		}
	}
	return ds
}

// synthMatrix draws one window: unit noise, shifted by two on the degraded
// class.
func synthMatrix(rng *rand.Rand, label int) window.Matrix {
	nf := len(window.FeatureNames())
	m := make(window.Matrix, serveTargets)
	for t := range m {
		row := make([]float64, nf)
		for f := range row {
			row[f] = rng.NormFloat64() + 2*float64(label)
		}
		m[t] = row
	}
	return m
}

func trainSynth(ds *dataset.Dataset, seed int64, epochs int) (*core.Framework, error) {
	fw, _, err := core.TrainFrameworkE(ds, core.FrameworkConfig{Seed: seed, Train: ml.TrainConfig{Epochs: epochs}})
	return fw, err
}

// setupServe trains the frameworks, the forecaster and three challengers
// on a seeded corpus, boots two loopback HTTP replicas sharing one shadow
// tap behind a fleet coordinator, precomputes in-process reference answers
// for every pooled window, and warms the connections.
func setupServe(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	corpus := synthCorpus(rng)
	s := &serveInstance{seed: seed, refs: map[string][][]float64{}}
	for i := range s.fws {
		fw, err := trainSynth(corpus, seed+int64(i), 3)
		if err != nil {
			return nil, err
		}
		s.fws[i] = fw
		s.digests[i] = ml.WeightsDigest(fw.ExportWeights())
	}
	if s.digests[0] == s.digests[1] {
		return nil, errors.New("the two alternating frameworks share a digest")
	}
	fc, _, err := core.TrainForecasterCtx(context.Background(), corpus, core.ForecasterConfig{
		Train: ml.TrainConfig{Epochs: 3}, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	s.fcDigest = ml.WeightsDigest(fc.ExportWeights())

	for i := 0; i < hotWindows+uniqueWindows; i++ {
		label := rng.Intn(2)
		s.pool = append(s.pool, synthMatrix(rng, label))
		s.degr = append(s.degr, 1+2*float64(label))
	}
	hist := fc.History
	for i := 0; i < histories; i++ {
		h := make([]window.Matrix, hist)
		for j := range h {
			h[j] = s.pool[rng.Intn(hotWindows)]
		}
		s.hists = append(s.hists, h)
	}
	for i, fw := range s.fws {
		ref, err := fw.Clone()
		if err != nil {
			return nil, err
		}
		_, probs := ref.PredictBatch(s.pool)
		rows := make([][]float64, len(probs))
		for j, p := range probs {
			rows[j] = append([]float64(nil), p...)
		}
		s.refs[s.digests[i]] = rows
	}
	fcRef, err := fc.Clone()
	if err != nil {
		return nil, err
	}
	for _, h := range s.hists {
		p, err := fcRef.Predict(h)
		if err != nil {
			return nil, err
		}
		s.fcRefs = append(s.fcRefs, p.Probs)
	}

	s.ev, err = shadow.New(s.fws[0], shadow.Config{Seed: seed, QueueCap: 4096, Sink: obs.New()})
	if err != nil {
		return nil, err
	}
	for i, epochs := range []int{2, 8, 4} {
		ch, err := trainSynth(corpus, seed+10+int64(i), epochs)
		if err != nil {
			return nil, err
		}
		if err := s.ev.AddChallenger(fmt.Sprintf("c%d", i), ch); err != nil {
			return nil, err
		}
	}

	var reps []*fleet.Replica
	for i := 0; i < serveReplicas; i++ {
		fw, err := s.fws[0].Clone()
		if err != nil {
			return nil, err
		}
		fcc, err := fc.Clone()
		if err != nil {
			return nil, err
		}
		srv := serve.New(fw, serve.Config{BatchWindow: batchWindow, Forecaster: fcc, Shadow: s.ev, Sink: obs.New()})
		ts := httptest.NewServer(srv.Handler())
		s.servers = append(s.servers, srv)
		s.https = append(s.https, ts)
		reps = append(reps, fleet.NewReplica(fmt.Sprintf("r%d", i), srv,
			serve.NewClient(ts.URL, serve.WithTimeout(10*time.Second)), nil))
	}
	s.coord, err = fleet.New(fleet.Config{Seed: seed}, reps...)
	if err != nil {
		s.close()
		return nil, err
	}
	s.next = 1
	// Warm-up: open the keep-alive connections and fault in both batchers.
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("warm%d", i)
		if _, err := s.coord.Predict(context.Background(), key, s.pool[i%hotWindows]); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up predict: %w", err)
		}
		if _, err := s.coord.Forecast(context.Background(), key, s.hists[i%histories]); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up forecast: %w", err)
		}
	}
	return s, nil
}

func (s *serveInstance) close() {
	for _, ts := range s.https {
		ts.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		srv.Shutdown(ctx)
	}
}

// request is one scheduled arrival of a rate phase.
type request struct {
	forecast bool
	idx      int // pool matrix (predict) or history (forecast) index
	key      string
}

// phaseStats is what one rate phase recorded.
type phaseStats struct {
	rate                   float64
	loop                   openLoop
	predictMS, forecastMS  []float64 // from due time; failed requests as +Inf
	fleetPredMS, fleetFcMS []float64 // coordinator call time, answered only
	predictCallMS          []float64 // predict call time; failed requests as +Inf
	attempted, failed      int
	mismatches             int
	abandoned              int // never sent: the generator fell maxLag behind
}

// schedule draws a phase's arrivals: Poisson due times, every
// forecastEvery-th request a forecast, predicts half hot and half unique
// windows, random keys (the coordinator's rendezvous hash spreads them over
// both replicas).
func schedule(rng *rand.Rand, rate float64, n int, unique *int) ([]time.Duration, []request) {
	due := poissonArrivals(rng, rate, n)
	reqs := make([]request, len(due))
	for i := range reqs {
		r := request{key: fmt.Sprintf("k%d", rng.Intn(1<<20))}
		switch {
		case i%forecastEvery == forecastEvery-1:
			r.forecast, r.idx = true, rng.Intn(histories)
		case rng.Intn(2) == 0:
			r.idx = rng.Intn(hotWindows)
		default:
			r.idx = hotWindows + *unique%uniqueWindows
			*unique++
		}
		reqs[i] = r
	}
	return due, reqs
}

func equalProbs(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

type labelJob struct {
	mat  window.Matrix
	degr float64
	at   time.Time
}

// measure offers each fixed rate in turn as an open loop with one sender
// per core. Beside the traffic, one goroutine writes delayed shadow labels
// and one promotes the two frameworks alternately across the fleet every
// promoteEvery, so the model slot is written under load. Every answered
// predict must carry the probs of the model its digest names; an answer
// carrying the other model's probs is the digest-stamp race, counted in
// serve.digest_mismatches and fail_frac, not hidden.
//
// The open loop has no quiescent point (the label and promotion goroutines
// keep running), so it never calls pr.between(): the heap figure is the
// whole phase's peak, and the times are not calibrated (see workloadSpec).
func (s *serveInstance) measure(d time.Duration, tr *tracer, pr *probe) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}, digests: map[string]string{}}
	s.pass++
	rng := rand.New(rand.NewSource(s.seed*1000 + int64(s.pass)))
	senders := runtime.NumCPU()
	ctx := context.Background()

	before := s.snapshots()
	dropped0 := s.coord.Dropped()
	timeline0 := len(s.coord.Timeline())

	// Side traffic: delayed labels and rolling promotions. The label queue
	// holds far more than the answers outstanding within one label delay at
	// the highest rate (2200 req/s x 20 ms), so a sender never waits on it.
	labels := make(chan labelJob, 8192)
	stop := make(chan struct{})
	var side sync.WaitGroup
	var labelUS, promoteMS, verdictMS []float64
	var depthMax float64
	var sideErr error
	side.Add(2)
	go func() {
		defer side.Done()
		for j := range labels {
			if wait := time.Until(j.at.Add(labelDelay)); wait > 0 {
				time.Sleep(wait)
			}
			sp := tr.begin("shadow.Label", 0, -1, tidLabels)
			t0 := time.Now()
			s.ev.Label(j.mat, j.degr)
			labelUS = append(labelUS, float64(time.Since(t0))/1e3)
			sp.end()
		}
	}()
	go func() {
		defer side.Done()
		sample := time.NewTicker(depthSampleEvery)
		defer sample.Stop()
		promote := time.NewTicker(promoteEvery)
		defer promote.Stop()
		for {
			select {
			case <-stop:
				return
			case <-sample.C:
				for _, srv := range s.servers {
					if v, ok := gauge(srv.Stats(), "serve", "queue_depth"); ok && v > depthMax {
						depthMax = v
					}
				}
				continue
			case <-promote.C:
			}
			sp := tr.begin("fleet.Promote", 0, -1, tidPromote)
			t0 := time.Now()
			err := s.coord.Promote(ctx, s.fws[s.next])
			promoteMS = append(promoteMS, float64(time.Since(t0))/1e6)
			sp.end()
			if err != nil {
				sideErr = fmt.Errorf("promote: %w", err)
				return
			}
			s.next = 1 - s.next
			sp = tr.begin("shadow.Verdict", 0, -1, tidPromote)
			t0 = time.Now()
			s.ev.Verdict()
			verdictMS = append(verdictMS, float64(time.Since(t0))/1e6)
			sp.end()
		}
	}()

	var phases []*phaseStats
	unique := 0
	var reqID atomic.Int64
	for i, rate := range serveRates {
		n := overRateRequests
		if i == 0 {
			rest := d.Seconds() - float64(len(serveRates)-1)*overRateRequests/2/nominalRate
			n = int(nominalRate * rest)
		}
		due, reqs := schedule(rng, rate, n, &unique)
		// Written by the senders at distinct indices, read after the phase.
		errs := make([]error, len(reqs))
		mismatch := make([]bool, len(reqs))
		callMS := make([]float64, len(reqs))
		psp := tr.begin(fmt.Sprintf("rate %.0f", rate), 0, -1, tidPhases)
		loop := runOpenLoop(wallClock{time.Now()}, due, senders, maxLag, func(i, sender int) {
			rq := reqs[i]
			name := "fleet.Predict"
			if rq.forecast {
				name = "fleet.Forecast"
			}
			sp := tr.begin(name, psp.id, reqID.Add(1), int64(sender))
			t0 := time.Now()
			if rq.forecast {
				resp, err := s.coord.Forecast(ctx, rq.key, s.hists[rq.idx])
				if err == nil {
					err = s.checkForecast(resp, rq.idx)
				}
				errs[i] = err
			} else {
				resp, err := s.coord.Predict(ctx, rq.key, s.pool[rq.idx])
				if err == nil {
					mismatch[i], err = s.checkPredict(resp, rq.idx)
					labels <- labelJob{s.pool[rq.idx], s.degr[rq.idx], time.Now()}
				}
				errs[i] = err
			}
			callMS[i] = float64(time.Since(t0)) / 1e6
			sp.end()
		})
		psp.end()
		ph := &phaseStats{rate: rate, loop: loop}
		for i, rq := range reqs {
			var ce *checkError
			if errors.As(errs[i], &ce) {
				close(stop)
				close(labels)
				side.Wait()
				return nil, errs[i]
			}
			if !loop.sent[i] {
				ph.abandoned++
				continue
			}
			ph.attempted++
			lat := float64(loop.latency[i]) / 1e6
			switch {
			case errs[i] != nil:
				// A failed request misses every latency limit.
				ph.failed++
				lat = math.Inf(1)
			case mismatch[i]:
				// The digest-stamp race: the answer is the previous model's,
				// correctly computed, under the new model's digest. It misses
				// the latency limit like a failure and counts in fail_frac
				// and serve.digest_mismatches, but not in failed, whose count
				// has to repeat from run to run (see NOTES.md).
				ph.mismatches++
				lat = math.Inf(1)
			case rq.forecast:
				ph.fleetFcMS = append(ph.fleetFcMS, callMS[i])
			default:
				ph.fleetPredMS = append(ph.fleetPredMS, callMS[i])
			}
			if rq.forecast {
				ph.forecastMS = append(ph.forecastMS, lat)
			} else {
				ph.predictMS = append(ph.predictMS, lat)
				call := callMS[i]
				if math.IsInf(lat, 1) {
					call = lat
				}
				ph.predictCallMS = append(ph.predictCallMS, call)
			}
		}
		phases = append(phases, ph)
	}
	close(stop)
	close(labels)
	side.Wait()
	if sideErr != nil {
		return nil, sideErr
	}

	for _, ph := range phases {
		out.attempted += ph.attempted
		out.failed += ph.failed
		out.flagged += ph.mismatches
	}
	// One op is one predict call at the nominal rate, from send to reply:
	// the wait for a free sender, which grows faster than linearly as the
	// machine slows and the two senders near saturation, is in
	// predict_p50_ms instead.
	nom := phases[0]
	out.ops = append(out.ops, nom.predictCallMS...)
	m := out.layer
	var err error
	if m["predict_p99_ms"], err = percentile(nom.predictMS, 99); err != nil {
		return nil, fmt.Errorf("predict tail at nominal rate: %w", err)
	}
	if m["forecast_p99_ms"], err = percentile(nom.forecastMS, 99); err != nil {
		return nil, fmt.Errorf("forecast tail at nominal rate: %w", err)
	}
	m["predict_p50_ms"] = median(nom.predictMS)
	m["fleet.predict_ms.p50"] = median(nom.fleetPredMS)
	m["fleet.predict_ms.p99"], _ = percentile(nom.fleetPredMS, 99)
	m["fleet.forecast_ms.p99"], _ = percentile(nom.fleetFcMS, 99)
	m["gen.lateness_p99_ms"], _ = percentile(durMS(nom.loop.lateness), 99)
	var sent, mismatches int
	var fleetPred []float64
	for _, ph := range phases {
		fleetPred = append(fleetPred, ph.fleetPredMS...)
		sent += ph.attempted
		mismatches += ph.mismatches
		all := append(append([]float64(nil), ph.predictMS...), ph.forecastMS...)
		for k := 0; k < ph.abandoned; k++ {
			all = append(all, math.Inf(1))
		}
		p99, err := percentile(all, 99)
		backlog := ph.loop.elapsed - ph.loop.lastDue
		if err == nil && p99 <= float64(latencyLimit)/1e6 && backlog <= latencyLimit && ph.rate > m["max_rate_rps"] {
			m["max_rate_rps"] = ph.rate
		}
		tailMS := "n/a"
		if err == nil {
			tailMS = fmt.Sprintf("%.3f ms", p99)
		}
		fmt.Printf("rate %6.0f req/s: sent %5d failed %d digest-stamp races %d abandoned %d p50 %.3f ms p99 %s backlog %v\n",
			ph.rate, ph.attempted, ph.failed, ph.mismatches, ph.abandoned, median(all), tailMS, backlog.Round(time.Millisecond))
	}
	m["gen.sent"] = float64(sent)
	m["serve.digest_mismatches"] = float64(mismatches)
	m["fleet.dropped"] = float64(s.coord.Dropped() - dropped0)
	failovers := 0
	for _, line := range s.coord.Timeline()[timeline0:] {
		if strings.HasPrefix(line, "retry ") {
			failovers++
		}
	}
	m["fleet.failovers"] = float64(failovers)
	m["fleet.promote_ms"] = median(promoteMS)
	m["shadow.label_us"] = median(labelUS)
	m["shadow.verdict_ms"] = median(verdictMS)
	m["serve.queue_depth_max"] = depthMax
	s.reportServeStats(m, before)
	m["http.hop_ms"] = mean(fleetPred) - m["serve.total_ms"]
	if m["gen.lateness_p99_ms"] > float64(latencyLimit)/1e6 {
		fmt.Printf("note: generator lateness p99 %.3f ms at the nominal rate exceeds the latency limit\n",
			m["gen.lateness_p99_ms"])
	}
	out.digests["weights"] = s.digests[0] + "/" + s.digests[1] + "/" + s.fcDigest
	return out, nil
}

// checkError marks a failed correctness check, as opposed to a counted
// request failure.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

// checkPredict compares an answer with the in-process reference of the
// model its digest names. mismatch reports the digest-stamp race: probs of
// the other alternating model under this model's digest. Probs matching
// neither model fail the check.
func (s *serveInstance) checkPredict(resp *serve.PredictResponse, idx int) (mismatch bool, err error) {
	ref, ok := s.refs[resp.ModelDigest]
	if !ok {
		return false, &checkError{fmt.Sprintf("predict answered under unknown digest %q", resp.ModelDigest)}
	}
	if equalProbs(resp.Probs, ref[idx]) {
		return false, nil
	}
	for dg, other := range s.refs {
		if dg != resp.ModelDigest && equalProbs(resp.Probs, other[idx]) {
			return true, nil
		}
	}
	return false, &checkError{fmt.Sprintf("predict probs for window %d match no served model", idx)}
}

func (s *serveInstance) checkForecast(resp *serve.ForecastResponse, idx int) error {
	if resp.ModelDigest != s.fcDigest {
		return &checkError{fmt.Sprintf("forecast answered under unknown digest %q", resp.ModelDigest)}
	}
	want := s.fcRefs[idx]
	if len(resp.Probs) != len(want) {
		return &checkError{"forecast horizon count differs from the reference"}
	}
	for h := range want {
		if !equalProbs(resp.Probs[h], want[h]) {
			return &checkError{fmt.Sprintf("forecast probs for history %d differ from the reference", idx)}
		}
	}
	return nil
}

// snapshots takes every replica's and the shadow tap's obs snapshot.
func (s *serveInstance) snapshots() []*obs.Snapshot {
	var snaps []*obs.Snapshot
	for _, srv := range s.servers {
		snaps = append(snaps, srv.Stats())
	}
	return append(snaps, s.ev.Stats())
}

// reportServeStats turns the replicas' and the shadow tap's obs deltas over
// the measured phase into per-layer figures.
func (s *serveInstance) reportServeStats(m map[string]float64, before []*obs.Snapshot) {
	after := s.snapshots()
	var counters = map[string]float64{}
	type agg struct{ sum, count float64 }
	hists := map[string]*agg{}
	for i := range after {
		for _, c := range after[i].Counters {
			prev, _ := before[i].Counter(c.Key.Component, c.Key.Instance, c.Key.Name)
			counters[c.Key.Component+"/"+c.Key.Name] += float64(c.Value - prev)
		}
		for _, h := range after[i].Histograms {
			k := h.Key.Component + "/" + h.Key.Name
			a := hists[k]
			if a == nil {
				a = &agg{}
				hists[k] = a
			}
			a.sum += h.Sum
			a.count += float64(h.Count)
			for _, hb := range before[i].Histograms {
				if hb.Key == h.Key {
					a.sum -= hb.Sum
					a.count -= float64(hb.Count)
				}
			}
		}
	}
	meanOf := func(k string) float64 {
		if a := hists[k]; a != nil {
			return ratio(a.sum, a.count)
		}
		return 0
	}
	m["serve.queue_wait_ms"] = meanOf("serve/queue_wait_ns") / 1e6
	m["serve.model_ms"] = meanOf("serve/model_ns") / 1e6
	m["serve.total_ms"] = meanOf("serve/total_ns") / 1e6
	m["serve.batch_size_mean"] = meanOf("serve/batch_size")
	m["serve.errors"] = counters["serve/errors"]
	m["serve.reloads"] = counters["serve/reloads"]
	m["shadow.mirrored"] = counters["shadow/mirrored"]
	m["shadow.mirror_drop_frac"] = ratio(counters["shadow/mirror_drops"],
		counters["shadow/mirrored"]+counters["shadow/mirror_drops"])
	m["shadow.unmatched_frac"] = ratio(counters["shadow/labels_unmatched"],
		counters["shadow/labeled"]+counters["shadow/labels_unmatched"])
}

func gauge(st *obs.Snapshot, comp, name string) (float64, bool) {
	for _, g := range st.Gauges {
		if g.Key.Component == comp && g.Key.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}
