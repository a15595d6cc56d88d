package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The fuzz targets drive Server.Handler() with arbitrary request bodies. The
// seed corpora under testdata/fuzz hold a valid body, a wrong shape, broken
// JSON, an all-1e308 poison body and an oversized body for each route.
// Run one with, for example:
//
//	go test ./internal/serve -run '^$' -fuzz '^FuzzPredictBody$' -fuzztime 5s

// fuzzServer builds a 3-target × 5-feature server with a 3-window forecaster
// loaded and ModelPath naming a saved copy of its framework, so every route
// can answer 200. It returns the handler, the class count and the model path.
func fuzzServer(f *testing.F) (http.Handler, int, string) {
	fw, _ := trainedFramework(f, 3, 5)
	path := filepath.Join(f.TempDir(), "fw.json")
	if err := fw.Save(path); err != nil {
		f.Fatal(err)
	}
	s := New(fw, Config{ModelPath: path, Forecaster: testForecaster(3, 5, []int{1, 2})})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	return s.Handler(), fw.Classes(), path
}

// postBody sends body to route through h and returns the recorded reply.
func postBody(h http.Handler, route string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/"+APIVersion+route, bytes.NewReader(body)))
	return rec
}

// allFinite reports whether every value is a finite float.
func allFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// checkRefusal fails the test unless code is one of the refusals a decoding
// route may answer with: a bad body (400), an oversized one (413) or a shed
// request (503).
func checkRefusal(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	switch rec.Code {
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
	default:
		t.Fatalf("status %d (%s), want 200, 400, 413 or 503", rec.Code, rec.Body.String())
	}
}

func FuzzPredictBody(f *testing.F) {
	h, classes, _ := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := postBody(h, "/predict", body)
		if rec.Code != http.StatusOK {
			checkRefusal(t, rec)
			return
		}
		var resp PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable body %q: %v", rec.Body.String(), err)
		}
		if len(resp.Probs) != classes || !allFinite(resp.Probs) || resp.ModelDigest == "" {
			t.Fatalf("malformed 200: %+v (want %d finite probs and a model digest)", resp, classes)
		}
	})
}

func FuzzForecastBody(f *testing.F) {
	h, _, _ := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := postBody(h, "/forecast", body)
		if rec.Code != http.StatusOK {
			checkRefusal(t, rec)
			return
		}
		var resp ForecastResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable body %q: %v", rec.Body.String(), err)
		}
		if len(resp.Probs) == 0 || len(resp.Probs) != len(resp.Horizons) || resp.ModelDigest == "" {
			t.Fatalf("malformed 200: %+v", resp)
		}
		for _, p := range resp.Probs {
			if !allFinite(p) {
				t.Fatalf("non-finite forecast probabilities in a 200: %+v", resp)
			}
		}
	})
}

func FuzzReloadBody(f *testing.F) {
	h, _, modelPath := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		// Keep the reload inside the package directory: an absolute or
		// parent-relative path could name a device or a FIFO that never
		// reaches EOF.
		var req reloadRequest
		empty := len(bytes.Trim(body, jsonSpace)) == 0
		decoded := len(body) <= maxBodyBytes && (empty || json.Unmarshal(body, &req) == nil)
		if decoded && (filepath.IsAbs(req.Path) || strings.Contains(req.Path, "..")) {
			t.Skip("path outside the package directory")
		}
		rec := postBody(h, "/admin/reload", body)
		if !decoded {
			checkRefusal(t, rec)
			return
		}
		path := req.Path
		if path == "" {
			path = modelPath
		}
		_, statErr := os.Stat(path)
		missing := errors.Is(statErr, fs.ErrNotExist)
		switch {
		case missing && rec.Code != http.StatusNotFound:
			t.Fatalf("reload of missing %q = %d (%s), want 404", path, rec.Code, rec.Body.String())
		case !missing && rec.Code == http.StatusNotFound:
			t.Fatalf("reload of existing %q = 404", path)
		case rec.Code != http.StatusOK && rec.Code != http.StatusNotFound:
			checkRefusal(t, rec)
		}
	})
}
