package serve

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"quanterference/internal/core"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
)

// tapShadow is a test ShadowEvaluator: it counts mirrored events, runs
// onMirror (if set) on every Mirror call, and serves status as its
// scoreboard.
type tapShadow struct {
	mu       sync.Mutex
	mirrored int
	onMirror func()
	status   ShadowStatus
}

func (e *tapShadow) Mirror(window.Matrix, int) {
	e.mu.Lock()
	e.mirrored++
	f := e.onMirror
	e.mu.Unlock()
	if f != nil {
		f()
	}
}

func (e *tapShadow) Sync()                {}
func (e *tapShadow) Status() ShadowStatus { return e.status }

func (e *tapShadow) count() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mirrored
}

func sameBits(a, b []float64) bool {
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

// TestReplyStampedFromAnsweringModel pins the digest-stamp race shut: a
// reload that lands after the batch has run but before the reply reaches
// the handler must not stamp the new model's digest on the old model's
// answer. The tap's first Mirror call — inside the batch, after
// PredictBatch, before the reply is sent — promotes another framework, so
// the reload always lands in that gap.
func TestReplyStampedFromAnsweringModel(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	other, err := fw.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range other.Model.Params() {
		for i := range p.W {
			p.W[i] *= -3
		}
	}
	refs := map[string][]float64{}
	for _, f := range []*core.Framework{fw, other} {
		_, probs := f.Predict(mats[0])
		refs[ml.WeightsDigest(f.ExportWeights())] = append([]float64(nil), probs...)
	}
	if len(refs) != 2 || sameBits(refs[ml.WeightsDigest(fw.ExportWeights())], refs[ml.WeightsDigest(other.ExportWeights())]) {
		t.Fatal("the two frameworks are indistinguishable; test is vacuous")
	}

	tap := &tapShadow{}
	s := New(fw, Config{Shadow: tap})
	defer s.Shutdown(context.Background())
	var once sync.Once
	tap.onMirror = func() {
		once.Do(func() {
			if err := s.ReloadFramework(other); err != nil {
				t.Error(err)
			}
		})
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	for i := 0; i < 2; i++ {
		resp, err := c.Predict(context.Background(), mats[0])
		if err != nil {
			t.Fatal(err)
		}
		want, ok := refs[resp.ModelDigest]
		if !ok {
			t.Fatalf("reply %d stamped with unknown digest %s", i, resp.ModelDigest)
		}
		if !sameBits(resp.Probs, want) {
			t.Fatalf("reply %d: probs %v are not those of the model its digest %s names (%v)",
				i, resp.Probs, resp.ModelDigest, want)
		}
	}
	if got := s.ModelDigest(); got != ml.WeightsDigest(other.ExportWeights()) {
		t.Fatalf("ModelDigest %s after the in-batch reload, want the promoted model's", got)
	}
}

// TestPoisonMatrixRejected: a matrix the scaler cannot represent (every
// feature 1e308) drives the probabilities non-finite. It must answer 400
// bad_input, count in serve/errors, and stay out of the shadow tap — not a
// 200 with an empty body. A forecast over such windows is refused the same
// way.
func TestPoisonMatrixRejected(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	tap := &tapShadow{}
	s := New(fw, Config{Shadow: tap, Forecaster: testForecaster(4, 5, []int{1, 2})})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	row := []float64{1e308, 1e308, 1e308, 1e308, 1e308}
	c := NewClient(ts.URL)
	if _, err := c.Predict(context.Background(), window.Matrix{row, row, row}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("poison predict = %v, want ErrBadInput (HTTP 400)", err)
	}
	hist := []window.Matrix{{row}, {row}, {row}, {row}}
	if _, err := c.Forecast(context.Background(), hist); !errors.Is(err, ErrBadInput) {
		t.Fatalf("poison forecast = %v, want ErrBadInput (HTTP 400)", err)
	}
	if v, _ := s.Stats().Counter("serve", "", "errors"); v != 2 {
		t.Fatalf("serve/errors = %d after two poison requests, want 2", v)
	}
	if n := tap.count(); n != 0 {
		t.Fatalf("poison requests mirrored %d time(s), want 0", n)
	}

	// A finite matrix still answers and is mirrored.
	if _, _, err := s.Predict(context.Background(), mats[0]); err != nil {
		t.Fatal(err)
	}
	if n := tap.count(); n != 1 {
		t.Fatalf("mirrored %d event(s) after one good request, want 1", n)
	}
}

// TestUnencodableReplyIs500: a reply that cannot be encoded as JSON (a NaN
// in the shadow scoreboard) becomes a 500 with an error body, counted in
// serve/errors, instead of a 200 with an empty body.
func TestUnencodableReplyIs500(t *testing.T) {
	fw, _ := trainedFramework(t, 3, 5)
	tap := &tapShadow{status: ShadowStatus{Champion: ShadowCandidate{Name: "champion", CE: math.NaN()}}}
	s := New(fw, Config{Shadow: tap})
	defer s.Shutdown(context.Background())

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/"+APIVersion+"/shadow", nil))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Fatalf("unencodable scoreboard = %d %q, want 500 with an error body", rec.Code, rec.Body.String())
	}
	if v, _ := s.Stats().Counter("serve", "", "errors"); v != 1 {
		t.Fatalf("serve/errors = %d, want 1", v)
	}
}

// TestReloadBody: a malformed /v1/admin/reload body is a 400 that leaves the
// served model alone; an empty body reloads the configured path.
func TestReloadBody(t *testing.T) {
	fw, _ := trainedFramework(t, 3, 5)
	path := t.TempDir() + "/fw.json"
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	s := New(fw, Config{ModelPath: path})
	defer s.Shutdown(context.Background())
	reloads := func() uint64 {
		v, _ := s.Stats().Counter("serve", "", "reloads")
		return v
	}

	for _, tc := range []struct {
		body        string
		status      int
		wantReloads uint64
	}{
		{`{bad`, http.StatusBadRequest, 0},
		{`{"path": 7}`, http.StatusBadRequest, 0},
		{``, http.StatusOK, 1},
		{`{}`, http.StatusOK, 2},
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/"+APIVersion+"/admin/reload", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Fatalf("reload body %q = %d %s, want %d", tc.body, rec.Code, rec.Body.String(), tc.status)
		}
		if got := reloads(); got != tc.wantReloads {
			t.Fatalf("after body %q: reloads = %d, want %d", tc.body, got, tc.wantReloads)
		}
	}
}
