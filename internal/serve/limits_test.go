package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// padTo pads a JSON body with trailing spaces to exactly n bytes.
func padTo(body []byte, n int) []byte {
	return append(body, bytes.Repeat([]byte(" "), n-len(body))...)
}

// TestBodyLimit: a body one byte over maxBodyBytes is refused with 413 and
// the usual error body on every decoding route, even when it starts with a
// valid request; a body of exactly maxBodyBytes is still served; and neither
// moves serve/errors or disturbs a normal predict on the same server.
func TestBodyLimit(t *testing.T) {
	fw, mats := trainedFramework(t, 3, 5)
	s := New(fw, Config{Forecaster: testForecaster(3, 5, []int{1})})
	defer s.Shutdown(context.Background())
	h := s.Handler()

	predict, err := json.Marshal(PredictRequest{Matrix: mats[0]})
	if err != nil {
		t.Fatal(err)
	}
	forecast, err := json.Marshal(ForecastRequest{History: [][][]float64{mats[0], mats[1], mats[2]}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		route string
		body  []byte
	}{
		{"/predict", predict},
		{"/forecast", forecast},
		{"/admin/reload", []byte(`{}`)},
	} {
		rec := postBody(h, tc.route, padTo(tc.body, maxBodyBytes+1))
		var resp errorResponse
		if rec.Code != http.StatusRequestEntityTooLarge ||
			json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Error == "" {
			t.Fatalf("%s with a %d-byte body = %d %q, want 413 with an error body",
				tc.route, maxBodyBytes+1, rec.Code, rec.Body.String())
		}
	}
	if rec := postBody(h, "/predict", padTo(predict, maxBodyBytes)); rec.Code != http.StatusOK {
		t.Fatalf("predict with a %d-byte body = %d %q, want 200", maxBodyBytes, rec.Code, rec.Body.String())
	}
	if rec := postBody(h, "/predict", predict); rec.Code != http.StatusOK {
		t.Fatalf("predict after the oversized bodies = %d %q, want 200", rec.Code, rec.Body.String())
	}
	if v, _ := s.Stats().Counter("serve", "", "errors"); v != 0 {
		t.Fatalf("serve/errors = %d after refused bodies, want 0", v)
	}
}

// TestReloadStatus: a reload naming a missing file is a 404; one naming a
// directory or a file that is not a framework is the caller's mistake, a 400;
// and one the replica cannot carry out (no configured path, or a file it may
// not or cannot read) is a 500. None of them swaps the served model.
func TestReloadStatus(t *testing.T) {
	fw, _ := trainedFramework(t, 3, 5)
	s := New(fw, Config{})
	defer s.Shutdown(context.Background())
	digest := s.ModelDigest()
	dir := t.TempDir()
	notFramework := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(notFramework, []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A well-formed framework file with a null model used to panic in
	// core.LoadFramework and drop the connection.
	nullModel := filepath.Join(dir, "null-model.json")
	if err := os.WriteFile(nullModel, []byte(`{"format":"quanterference.framework","version":1,`+
		`"model":null,"scaler":{"mean":[0],"std":[1]},"thresholds":[2]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path   string
		status int
	}{
		{filepath.Join(dir, "missing.json"), http.StatusNotFound},
		{dir, http.StatusBadRequest},
		{notFramework, http.StatusBadRequest},
		{nullModel, http.StatusBadRequest},
		{"", http.StatusInternalServerError}, // no Config.ModelPath to fall back on
	} {
		body, err := json.Marshal(reloadRequest{Path: tc.path})
		if err != nil {
			t.Fatal(err)
		}
		if rec := postBody(s.Handler(), "/admin/reload", body); rec.Code != tc.status {
			t.Fatalf("reload of %q = %d %q, want %d", tc.path, rec.Code, rec.Body.String(), tc.status)
		}
	}
	if s.ModelDigest() != digest {
		t.Fatal("a failed reload swapped the served model")
	}
	// Read failures cannot be provoked reliably (root reads any file), so
	// check their mapping on the errors Reload would wrap.
	for _, errno := range []syscall.Errno{syscall.EACCES, syscall.EIO} {
		err := fmt.Errorf("serve: reload m.json: %w", &fs.PathError{Op: "open", Path: "m.json", Err: errno})
		if got := reloadStatus(err); got != http.StatusInternalServerError {
			t.Fatalf("reloadStatus(%v) = %d, want 500", err, got)
		}
	}
}
