package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/label"
	"quanterference/internal/ml"
	"quanterference/internal/monitor/window"
)

// savedFramework returns the bytes Save writes for a small untrained
// 3-target × 4-feature binary framework.
func savedFramework(t testing.TB) []byte {
	fw := &Framework{
		Bins:   label.BinaryBins(),
		Model:  ml.NewKernelModel(ml.KernelConfig{NTargets: 3, NFeat: 4, Classes: 2, Seed: 1}),
		Scaler: &dataset.Scaler{Mean: []float64{0, 1, 2, 3}, Std: []float64{1, 1, 2, 2}},
	}
	path := filepath.Join(t.TempDir(), "fw.json")
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// mutatedFramework decodes a saved framework, applies edit to its generic
// JSON form, and re-encodes it.
func mutatedFramework(t testing.TB, raw []byte, edit func(spec, model, scaler map[string]any)) []byte {
	var spec map[string]any
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	edit(spec, spec["model"].(map[string]any), spec["scaler"].(map[string]any))
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// unservableFrameworks are well-formed framework files that cannot make a
// servable framework; each must be rejected with ErrBadFrameworkFile.
func unservableFrameworks(t testing.TB, raw []byte) map[string][]byte {
	edits := map[string]func(spec, model, scaler map[string]any){
		"null-model":        func(spec, _, _ map[string]any) { spec["model"] = nil },
		"null-scaler":       func(spec, _, _ map[string]any) { spec["scaler"] = nil },
		"negative-targets":  func(_, model, _ map[string]any) { model["n_targets"] = -1 },
		"zero-classes":      func(_, model, _ map[string]any) { model["classes"] = 0 },
		"zero-features":     func(_, model, _ map[string]any) { model["n_feat"] = 0 },
		"huge-features":     func(_, model, _ map[string]any) { model["n_feat"] = 1 << 40 },
		"more-targets":      func(_, model, _ map[string]any) { model["n_targets"] = 4 },
		"unknown-kind":      func(_, model, _ map[string]any) { model["kind"] = "bogus" },
		"missing-tensor":    func(_, model, _ map[string]any) { w := model["weights"].([]any); model["weights"] = w[:len(w)-1] },
		"narrow-scaler":     func(_, _, scaler map[string]any) { scaler["mean"] = scaler["mean"].([]any)[:3] },
		"short-std":         func(_, _, scaler map[string]any) { scaler["std"] = []any{} },
		"extra-threshold":   func(spec, _, _ map[string]any) { spec["thresholds"] = []any{2.0, 5.0} },
		"missing-threshold": func(spec, _, _ map[string]any) { spec["thresholds"] = nil },
	}
	files := make(map[string][]byte, len(edits))
	for name, edit := range edits {
		files[name] = mutatedFramework(t, raw, edit)
	}
	return files
}

func TestLoadFrameworkRejectsUnservableFiles(t *testing.T) {
	raw := savedFramework(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFramework(good); err != nil {
		t.Fatalf("saved framework did not load: %v", err)
	}
	for name, content := range unservableFrameworks(t, raw) {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".json")
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			fw, err := LoadFramework(path)
			if !errors.Is(err, ErrBadFrameworkFile) || fw != nil {
				t.Fatalf("LoadFramework = %v, %v; want nil and ErrBadFrameworkFile", fw, err)
			}
		})
	}
}

// FuzzLoadFramework checks that LoadFramework either rejects a readable file
// with ErrBadFrameworkFile or returns a framework that can serve a window of
// its own shape.
func FuzzLoadFramework(f *testing.F) {
	raw := savedFramework(f)
	f.Add(raw)
	for _, content := range unservableFrameworks(f, raw) {
		f.Add(content)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fw.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fw, err := LoadFramework(path)
		if err != nil {
			if !errors.Is(err, ErrBadFrameworkFile) || fw != nil {
				t.Fatalf("LoadFramework = %v, %v; want nil and ErrBadFrameworkFile", fw, err)
			}
			return
		}
		nT, nF := fw.Dims()
		mat := make(window.Matrix, nT)
		for i := range mat {
			mat[i] = make([]float64, nF)
		}
		_, probs := fw.PredictBatch([]window.Matrix{mat})
		if len(probs[0]) != fw.Classes() || fw.Bins.Classes() != fw.Classes() {
			t.Fatalf("%d probabilities, %d bin classes, %d model classes",
				len(probs[0]), fw.Bins.Classes(), fw.Classes())
		}
	})
}
