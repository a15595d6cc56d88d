package ml

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"quanterference/internal/nn"
)

// ModelSpec is the serialized form of a trained classifier: enough to
// reconstruct the architecture and restore its weights.
type ModelSpec struct {
	Kind     string      `json:"kind"` // kernel, flat, attention
	NTargets int         `json:"n_targets"`
	NFeat    int         `json:"n_feat"`
	Classes  int         `json:"classes"`
	Seed     int64       `json:"seed"`
	Weights  [][]float64 `json:"weights"`
}

// ExportWeights snapshots every parameter tensor of a model, in Params
// order, into freshly allocated slices — the bit-exact weight state, suitable
// for equality comparison across runs (the determinism tests) or for feeding
// back through ImportWeights.
func ExportWeights(m Model) [][]float64 { return nn.SnapshotParams(m.Params()) }

// ImportWeights restores an ExportWeights snapshot into a model with the
// same architecture. Shapes must match exactly; a failed import leaves the
// model untouched.
func ImportWeights(m Model, weights [][]float64) error {
	return nn.RestoreParams(m.Params(), weights)
}

// CloneModel builds an independent copy of a model: same architecture, same
// weights, private gradient state and scratch. Unlike Replica (which shares
// weight storage for data-parallel training), a clone may be trained or used
// for inference without affecting the original — the primitive behind
// warm-started retraining, where a candidate starts from the incumbent's
// weights but must not perturb the incumbent while it keeps serving.
func CloneModel(m Model) (Model, error) {
	spec, err := Snapshot(m)
	if err != nil {
		return nil, err
	}
	return Restore(spec)
}

// Snapshot captures a model's architecture and weights. The model must be
// one of this package's concrete types.
func Snapshot(m Model) (*ModelSpec, error) {
	spec := &ModelSpec{Weights: nn.SnapshotParams(m.Params())}
	switch t := m.(type) {
	case *KernelModel:
		spec.Kind = "kernel"
		spec.NTargets, spec.NFeat, spec.Classes = t.nTargets, t.nFeat, t.classes
	case *FlatModel:
		spec.Kind = "flat"
		spec.NTargets, spec.NFeat, spec.Classes = t.nTargets, t.nFeat, t.classes
	case *AttentionModel:
		spec.Kind = "attention"
		spec.NTargets, spec.NFeat, spec.Classes = t.nTargets, t.nFeat, t.classes
	default:
		return nil, fmt.Errorf("ml: cannot snapshot %T", m)
	}
	return spec, nil
}

// Restore rebuilds the model a Snapshot described. A null spec, a
// dimension below its minimum, or dimensions the spec's own weights cannot
// fill is an error, found before any model is allocated.
func Restore(spec *ModelSpec) (Model, error) {
	if err := checkSpec(spec); err != nil {
		return nil, err
	}
	var m Model
	switch spec.Kind {
	case "kernel":
		m = NewKernelModel(KernelConfig{
			NTargets: spec.NTargets, NFeat: spec.NFeat, Classes: spec.Classes, Seed: spec.Seed,
		})
	case "flat":
		m = NewFlatModel(spec.NTargets, spec.NFeat, spec.Classes, nil, spec.Seed)
	case "attention":
		m = NewAttentionModel(AttentionConfig{
			NTargets: spec.NTargets, NFeat: spec.NFeat, Classes: spec.Classes, Seed: spec.Seed,
		})
	default:
		return nil, fmt.Errorf("ml: unknown model kind %q", spec.Kind)
	}
	if err := nn.RestoreParams(m.Params(), spec.Weights); err != nil {
		return nil, err
	}
	return m, nil
}

// checkSpec compares the weight count Restore's architecture for the spec's
// kind and dimensions needs with the count the spec carries. The hidden
// sizes below are the constructors' defaults, which Restore uses;
// TestSaveLoadEveryKind fails if the two drift apart.
func checkSpec(spec *ModelSpec) error {
	if spec == nil {
		return errors.New("ml: null model spec")
	}
	nT, nF, cls := spec.NTargets, spec.NFeat, spec.Classes
	if nT <= 0 || nF <= 0 || cls < 2 {
		return fmt.Errorf("ml: model spec has %d targets, %d features, %d classes (want >= 1, >= 1, >= 2)",
			nT, nF, cls)
	}
	have := 0
	for _, w := range spec.Weights {
		have += len(w)
	}
	// Each dimension sizes at least one tensor, so none can exceed the
	// weight count; bounding them first keeps the products below in range.
	need := -1
	if nT <= have && nF <= have && cls <= have {
		switch spec.Kind {
		case "kernel":
			need = mlpParams(nF, 32, 16, 1) + mlpParams(nT, 16, cls)
		case "flat":
			if nT <= have/nF {
				need = mlpParams(nT*nF, 64, 16, cls)
			}
		case "attention":
			need = mlpParams(nF, 32, 16) + 3*mlpParams(16, 16) + mlpParams(16, 16, cls)
		default:
			return fmt.Errorf("ml: unknown model kind %q", spec.Kind)
		}
	}
	if need != have {
		return fmt.Errorf("ml: %s model of %d targets, %d features, %d classes cannot be filled by %d weights",
			spec.Kind, nT, nF, cls, have)
	}
	return nil
}

// mlpParams is the weight and bias count of nn.MLP(rng, sizes...).
func mlpParams(sizes ...int) int {
	n := 0
	for i := 0; i+1 < len(sizes); i++ {
		n += sizes[i]*sizes[i+1] + sizes[i+1]
	}
	return n
}

// SaveModel writes a model snapshot as JSON.
func SaveModel(m Model, path string) error {
	spec, err := Snapshot(m)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewEncoder(f).Encode(spec)
}

// LoadModel reads a snapshot written by SaveModel.
func LoadModel(path string) (Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spec ModelSpec
	if err := json.NewDecoder(f).Decode(&spec); err != nil {
		return nil, err
	}
	return Restore(&spec)
}
