package ml

import (
	"math"
	"runtime"
	"testing"

	"quanterference/internal/dataset"
	"quanterference/internal/nn"
	"quanterference/internal/sim"
)

func parallelTestDataset(n, nTargets, nFeat, classes int) *dataset.Dataset {
	names := make([]string, nFeat)
	for i := range names {
		names[i] = "f"
	}
	ds := dataset.New(names, nTargets, classes)
	rng := sim.NewRNG(31)
	for i := 0; i < n; i++ {
		vecs := make([][]float64, nTargets)
		for t := range vecs {
			v := make([]float64, nFeat)
			for f := range v {
				v[f] = rng.NormFloat64()
			}
			vecs[t] = v
		}
		// Degradation varies so the regressor has a target to fit.
		ds.Add(&dataset.Sample{Label: i % classes, Degradation: 1 + float64(i%7)/2, Vectors: vecs})
	}
	return ds
}

func paramBits(params []nn.Param) []uint64 {
	var out []uint64
	for _, p := range params {
		for _, w := range p.W {
			out = append(out, math.Float64bits(w))
		}
	}
	return out
}

// withGOMAXPROCS runs fn with runtime.GOMAXPROCS set to n, the trainer's
// shard fan-out limit, and restores the previous setting. Callers must not
// run in parallel with other tests.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// trainer is a freshly built model's parameters plus the call that trains
// it, so classifiers and the regressor share one determinism check.
type trainer struct {
	params []nn.Param
	train  func(ds *dataset.Dataset, cfg TrainConfig) float64
}

func classifier(m Model) trainer {
	return trainer{m.Params(), func(ds *dataset.Dataset, cfg TrainConfig) float64 {
		return Train(m, ds, cfg)
	}}
}

// trainWithProcs trains a fresh model of the given constructor at the given
// GOMAXPROCS and returns the final weights' bit patterns and loss.
func trainWithProcs(mk func() trainer, ds *dataset.Dataset, procs int) ([]uint64, uint64) {
	tr := mk()
	var loss float64
	withGOMAXPROCS(procs, func() {
		loss = tr.train(ds, TrainConfig{Epochs: 3, Batch: 20, Seed: 99, BalanceClasses: true})
	})
	return paramBits(tr.params), math.Float64bits(loss)
}

// TestParallelTrainingDeterministic is the load-bearing determinism
// regression: the sharded trainer must produce bit-identical weights and
// losses at every GOMAXPROCS, including the degenerate single-proc schedule
// that runs every shard on the calling goroutine, for every model
// architecture and for the regressor's MSE loss.
func TestParallelTrainingDeterministic(t *testing.T) {
	ds := parallelTestDataset(110, 5, 9, 3) // odd sizes exercise ragged shards
	models := map[string]func() trainer{
		"kernel": func() trainer {
			return classifier(NewKernelModel(KernelConfig{NTargets: 5, NFeat: 9, Classes: 3, Seed: 7}))
		},
		"flat": func() trainer {
			return classifier(NewFlatModel(5, 9, 3, nil, 7))
		},
		"attention": func() trainer {
			return classifier(NewAttentionModel(AttentionConfig{NTargets: 5, NFeat: 9, Classes: 3, Seed: 7}))
		},
		"regressor": func() trainer {
			m := NewKernelRegressor(5, 9, 7)
			return trainer{m.Params(), func(ds *dataset.Dataset, cfg TrainConfig) float64 {
				return TrainRegressor(m, ds, cfg)
			}}
		},
	}
	for name, mk := range models {
		t.Run(name, func(t *testing.T) {
			refW, refLoss := trainWithProcs(mk, ds, 1)
			for _, procs := range []int{2, 4, 8} {
				gotW, gotLoss := trainWithProcs(mk, ds, procs)
				if gotLoss != refLoss {
					t.Errorf("GOMAXPROCS=%d: loss bits %x != GOMAXPROCS=1 %x", procs, gotLoss, refLoss)
				}
				if len(gotW) != len(refW) {
					t.Fatalf("GOMAXPROCS=%d: %d weights, want %d", procs, len(gotW), len(refW))
				}
				for i := range gotW {
					if gotW[i] != refW[i] {
						t.Fatalf("GOMAXPROCS=%d: weight %d bits %x != GOMAXPROCS=1 %x",
							procs, i, gotW[i], refW[i])
					}
				}
			}
		})
	}
}

// TestParallelTrainingLearns sanity-checks that the sharded path actually
// trains: loss must drop and accuracy beat chance on a separable dataset.
func TestParallelTrainingLearns(t *testing.T) {
	nTargets, nFeat := 4, 6
	names := make([]string, nFeat)
	for i := range names {
		names[i] = "f"
	}
	ds := dataset.New(names, nTargets, 2)
	rng := sim.NewRNG(5)
	for i := 0; i < 200; i++ {
		label := i % 2
		vecs := make([][]float64, nTargets)
		for tt := range vecs {
			v := make([]float64, nFeat)
			for f := range v {
				v[f] = rng.NormFloat64() + float64(label)*2.5
			}
			vecs[tt] = v
		}
		ds.Add(&dataset.Sample{Label: label, Degradation: 1, Vectors: vecs})
	}
	m := NewKernelModel(KernelConfig{NTargets: nTargets, NFeat: nFeat, Classes: 2, Seed: 3})
	var first, last float64
	Train(m, ds, TrainConfig{Epochs: 15, Seed: 8,
		OnEpoch: func(epoch int, loss float64) {
			if epoch == 0 {
				first = loss
			}
			last = loss
		}})
	if !(last < first/2) {
		t.Fatalf("parallel training failed to learn: first epoch loss %.4f, last %.4f", first, last)
	}
	if acc := Evaluate(m, ds).Accuracy(); acc < 0.9 {
		t.Fatalf("parallel training accuracy %.3f < 0.9", acc)
	}
}

// TestShardBounds pins the shard partition: covering, non-overlapping,
// ceil-sized, independent of worker count by construction.
func TestShardBounds(t *testing.T) {
	for _, tc := range []struct{ n, ns int }{
		{32, 8}, {20, 8}, {7, 7}, {1, 1}, {9, 8}, {64, 8},
	} {
		covered := 0
		prevHi := 0
		for s := 0; s < tc.ns; s++ {
			lo, hi := shardBounds(tc.n, tc.ns, s)
			if lo != prevHi && lo < tc.n {
				t.Fatalf("n=%d ns=%d shard %d: gap or overlap at %d (prev end %d)",
					tc.n, tc.ns, s, lo, prevHi)
			}
			if hi > prevHi {
				prevHi = hi
			}
			covered += hi - lo
		}
		if covered != tc.n || prevHi != tc.n {
			t.Fatalf("n=%d ns=%d: shards cover %d ending at %d", tc.n, tc.ns, covered, prevHi)
		}
	}
}

// TestAccumulateGrads checks the pairwise reduction primitive.
func TestAccumulateGrads(t *testing.T) {
	rng := sim.NewRNG(1)
	a := nn.NewDense(3, 2, rng)
	b := a.Replica()
	if &a.W[0] != &b.W[0] {
		t.Fatal("replica does not share weights")
	}
	a.GW[0], b.GW[0] = 1.5, 2.25
	a.GB[1], b.GB[1] = -1, 0.5
	nn.AccumulateGrads(a.Params(), b.Params())
	if a.GW[0] != 3.75 || a.GB[1] != -0.5 {
		t.Fatalf("accumulate wrong: GW0=%g GB1=%g", a.GW[0], a.GB[1])
	}
	if b.GW[0] != 2.25 {
		t.Fatal("accumulate mutated source")
	}
}

// TestReplicaIsolation verifies a replica's backward pass leaves the
// original's gradients and caches untouched while updating shared weights'
// predictions coherently.
func TestReplicaIsolation(t *testing.T) {
	m := NewKernelModel(KernelConfig{NTargets: 3, NFeat: 4, Classes: 2, Seed: 2})
	rep := m.Replica().(*KernelModel)
	vecs := [][]float64{{1, 2, 3, 4}, {0, -1, 1, 0}, {2, 0, 0, 1}}
	rep.LossAndGrad(vecs, 1, 1)
	for i, p := range m.Params() {
		for j, g := range p.G {
			if g != 0 {
				t.Fatalf("replica backward dirtied original grad %d[%d]=%g", i, j, g)
			}
		}
	}
	if m.Predict(vecs) != rep.Predict(vecs) {
		t.Fatal("replica and original disagree on shared weights")
	}
}
