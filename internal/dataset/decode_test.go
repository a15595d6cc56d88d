package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadRejectsMalformedShape pins that Load never returns a malformed
// success: each file below used to load, and the first one then made
// ClassCounts panic with an index out of range.
func TestLoadRejectsMalformedShape(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"label-and-ragged", `{"feature_names":["a","b"],"n_targets":2,"classes":2,
			"samples":[{"label":7,"vectors":[[1,2],[3]]}]}`, "sample 0"},
		{"label-out-of-range", `{"feature_names":["a"],"n_targets":1,"classes":2,
			"samples":[{"label":0,"vectors":[[1]]},{"label":2,"vectors":[[1]]}]}`, "sample 1: label 2"},
		{"negative-label", `{"feature_names":["a"],"n_targets":1,"classes":2,
			"samples":[{"label":-1,"vectors":[[1]]}]}`, "label -1"},
		{"ragged-vector", `{"feature_names":["a","b"],"n_targets":1,"classes":2,
			"samples":[{"label":1,"vectors":[[1]]}]}`, "vector width 1, want 2"},
		{"wrong-target-count", `{"feature_names":["a"],"n_targets":3,"classes":2,
			"samples":[{"label":1,"vectors":[[1],[2]]}]}`, "2 vectors, want 3"},
		{"null-sample", `{"feature_names":["a"],"n_targets":1,"classes":2,"samples":[null]}`, "null sample"},
		{"negative-classes", `{"feature_names":["a"],"n_targets":1,"classes":-1,"samples":[]}`, "-1 classes"},
		{"huge-classes", `{"feature_names":["a"],"n_targets":1,"classes":100000000000}`, "100000000000 classes"},
		{"negative-targets", `{"feature_names":["a"],"n_targets":-2,"classes":2}`, "-2 targets"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ds.json")
			if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := Load(path)
			if d != nil || !errors.Is(err, ErrInvalidDataset) {
				t.Fatalf("Load = %v, %v; want nil, ErrInvalidDataset", d, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeRejectsNonFinite: JSON cannot carry NaN or infinity, and a
// number beyond float64 range fails to decode, so no accepted dataset
// holds a non-finite value.
func TestDecodeRejectsNonFinite(t *testing.T) {
	for _, v := range []string{"1e400", "-1e400", "NaN", "Infinity"} {
		body := `{"feature_names":["a"],"n_targets":1,"classes":2,"samples":[{"label":0,"vectors":[[` + v + `]]}]}`
		if d, err := Decode(strings.NewReader(body)); d != nil || err == nil {
			t.Errorf("Decode accepted feature value %s", v)
		}
	}
}

// TestDecodeRoundTrip checks that everything Save writes decodes again.
func TestDecodeRoundTrip(t *testing.T) {
	d := New([]string{"f0", "f1"}, 2, 3)
	d.Profile = "nvme"
	d.Add(&Sample{Workload: "w", Run: "r", Window: 3, Degradation: 2.5, Label: 2,
		Vectors: [][]float64{{1, -2}, {0.5, 1e300}}})
	path := filepath.Join(t.TempDir(), "ds.json")
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != d.Digest() || got.Profile != "nvme" {
		t.Fatalf("round-trip changed the dataset: %+v", got)
	}
}

// FuzzDecode feeds arbitrary bytes to Decode: whatever it accepts must be
// safe to tally and deep-copy.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"feature_names":["a","b"],"n_targets":2,"classes":2,` +
		`"samples":[{"label":1,"vectors":[[1,2],[3,4]]}]}`))
	f.Add([]byte(`{"feature_names":["a","b"],"n_targets":2,"classes":2,` +
		`"samples":[{"label":7,"vectors":[[1,2],[3]]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(bytes.NewReader(data))
		if err != nil {
			if d != nil {
				t.Fatalf("Decode returned a dataset with error %v", err)
			}
			return
		}
		counts := d.ClassCounts()
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != d.Len() {
			t.Fatalf("ClassCounts %v sum to %d, want %d samples", counts, total, d.Len())
		}
		if c := d.Copy(); c.Len() != d.Len() {
			t.Fatalf("Copy has %d samples, want %d", c.Len(), d.Len())
		}
	})
}
