// Package ml implements the paper's kernel-based classification model
// (§III-C): a shared dense network applied independently to each per-server
// vector, whose scalar outputs are concatenated and fed to a small MLP head
// for multi-bin classification. It also provides a flat-MLP baseline (for
// the architecture ablation), an attention extension, the data-parallel
// training loop (deterministic gradient reduction), and evaluation metrics
// (confusion matrices, precision/recall/F1).
package ml

import (
	"fmt"

	"quanterference/internal/nn"
	"quanterference/internal/sim"
)

// Model is a classifier over per-server vector matrices.
type Model interface {
	// Predict returns the argmax class for one window's matrix.
	Predict(vectors [][]float64) int
	// Probs returns the class distribution.
	Probs(vectors [][]float64) []float64
	// LossAndGrad accumulates parameter gradients for one sample and
	// returns its weighted loss.
	LossAndGrad(vectors [][]float64, label int, weight float64) float64
	// Params exposes the trainable parameters.
	Params() []nn.Param
	// Replica returns a weight-sharing replica for data-parallel training:
	// it shares the original's weight slices but owns private gradient
	// accumulators and scratch state, so replicas may run LossAndGrad
	// concurrently as long as weights are only updated between batches.
	Replica() Model
}

// BatchPredictor is a Model with an allocation-free inference path for the
// serving hot loop: ProbsInto writes one window's class distribution into
// dst without touching the training caches, producing bits identical to
// Probs. KernelModel and FlatModel implement it via nn's Infer path;
// Framework.PredictBatch falls back to Probs for models that do not.
type BatchPredictor interface {
	Model
	// ProbsInto writes the class distribution for vectors into dst (length
	// must equal the class count) and returns dst.
	ProbsInto(dst []float64, vectors [][]float64) []float64
}

// Dims reports a model's input/output shape — what a serving layer needs to
// validate requests before they reach the model's panicking check. ok is
// false for model types this package does not know.
func Dims(m Model) (nTargets, nFeat, classes int, ok bool) {
	switch t := m.(type) {
	case *KernelModel:
		return t.nTargets, t.nFeat, t.classes, true
	case *FlatModel:
		return t.nTargets, t.nFeat, t.classes, true
	case *AttentionModel:
		return t.nTargets, t.nFeat, t.classes, true
	}
	return 0, 0, 0, false
}

// KernelModel is the paper's architecture. Because the kernel network's
// weights are shared across servers, the model generalizes over which
// subset of OSTs a file actually uses — the motivation given in §III-C.
type KernelModel struct {
	Kernel *nn.Sequential // per-server vector -> 1 scalar
	Head   *nn.Sequential // nTargets scalars -> class logits

	nTargets int
	nFeat    int
	classes  int

	// Reusable per-model scratch; replicas get their own, keeping the
	// training and inference hot loops allocation-free.
	z          []float64  // kernel outputs / head input
	zeroLogits []float64  // all-zero dlogits for cache drains
	dzt        [1]float64 // per-target backward seed
	probsBuf   []float64  // Predict's softmax output
	ce         nn.CEScratch
	params     []nn.Param // cached Params() slice
}

// KernelConfig sizes the model.
type KernelConfig struct {
	NTargets int
	NFeat    int
	Classes  int
	// KernelHidden are the shared network's hidden sizes (default 32,16).
	KernelHidden []int
	// HeadHidden are the head's hidden sizes (default 16).
	HeadHidden []int
	Seed       int64
}

// NewKernelModel builds the model with He initialization.
func NewKernelModel(cfg KernelConfig) *KernelModel {
	if cfg.NTargets <= 0 || cfg.NFeat <= 0 || cfg.Classes < 2 {
		panic("ml: bad kernel model config")
	}
	if cfg.KernelHidden == nil {
		cfg.KernelHidden = []int{32, 16}
	}
	if cfg.HeadHidden == nil {
		cfg.HeadHidden = []int{16}
	}
	rng := sim.NewRNG(cfg.Seed ^ 0x4b4e)
	kSizes := append([]int{cfg.NFeat}, cfg.KernelHidden...)
	kSizes = append(kSizes, 1)
	hSizes := append([]int{cfg.NTargets}, cfg.HeadHidden...)
	hSizes = append(hSizes, cfg.Classes)
	return newKernelModel(nn.MLP(rng, kSizes...), nn.MLP(rng, hSizes...),
		cfg.NTargets, cfg.NFeat, cfg.Classes)
}

func newKernelModel(kernel, head *nn.Sequential, nTargets, nFeat, classes int) *KernelModel {
	m := &KernelModel{
		Kernel:   kernel,
		Head:     head,
		nTargets: nTargets,
		nFeat:    nFeat,
		classes:  classes,
		z:        make([]float64, nTargets),
		// zeroLogits stays all-zero: layers only read their dy argument.
		zeroLogits: make([]float64, classes),
		probsBuf:   make([]float64, classes),
	}
	m.params = append(m.Kernel.Params(), m.Head.Params()...)
	return m
}

// Replica implements Model.
func (m *KernelModel) Replica() Model {
	return newKernelModel(m.Kernel.Replica(), m.Head.Replica(),
		m.nTargets, m.nFeat, m.classes)
}

func (m *KernelModel) check(vectors [][]float64) {
	if len(vectors) != m.nTargets {
		panic(fmt.Sprintf("ml: %d vectors, want %d", len(vectors), m.nTargets))
	}
}

// forward runs kernel-per-target then head, leaving caches in place.
func (m *KernelModel) forward(vectors [][]float64) []float64 {
	m.check(vectors)
	for t, v := range vectors {
		m.z[t] = m.Kernel.Forward(v)[0]
	}
	return m.Head.Forward(m.z)
}

// drain pops all forward caches after an inference-only pass.
func (m *KernelModel) drain() {
	m.Head.BackwardNoDX(m.zeroLogits)
	m.dzt[0] = 0
	for t := 0; t < m.nTargets; t++ {
		m.Kernel.BackwardNoDX(m.dzt[:])
	}
	nn.ZeroGrads(m.params)
}

// Probs implements Model. The returned slice is freshly allocated.
func (m *KernelModel) Probs(vectors [][]float64) []float64 {
	logits := m.forward(vectors)
	m.drain()
	return nn.Softmax(logits)
}

// Predict implements Model. Unlike Probs it allocates nothing, so it is the
// entry point for the online predictor's per-window hot path.
func (m *KernelModel) Predict(vectors [][]float64) int {
	logits := m.forward(vectors)
	m.drain()
	return argmax(nn.SoftmaxInto(m.probsBuf, logits))
}

// ProbsInto implements BatchPredictor on nn's Infer path: no caches are
// pushed, so no drain pass is needed — about half the work of Probs for the
// same bits.
func (m *KernelModel) ProbsInto(dst []float64, vectors [][]float64) []float64 {
	m.check(vectors)
	for t, v := range vectors {
		m.z[t] = m.Kernel.Infer(v)[0]
	}
	return nn.SoftmaxInto(dst, m.Head.Infer(m.z))
}

// LossAndGrad implements Model.
func (m *KernelModel) LossAndGrad(vectors [][]float64, label int, weight float64) float64 {
	logits := m.forward(vectors)
	loss, dlogits := m.ce.SoftmaxCE(logits, label, weight)
	dz := m.Head.Backward(dlogits)
	// Kernel caches are a stack: backprop targets in reverse order. The
	// kernel's own input gradient is never used, so skip computing it.
	for t := m.nTargets - 1; t >= 0; t-- {
		m.dzt[0] = dz[t]
		m.Kernel.BackwardNoDX(m.dzt[:])
	}
	return loss
}

// Params implements Model.
func (m *KernelModel) Params() []nn.Param { return m.params }

// FlatModel is the ablation baseline: one MLP over the concatenation of all
// per-server vectors, with no weight sharing across servers.
type FlatModel struct {
	Net      *nn.Sequential
	nTargets int
	nFeat    int
	classes  int

	flat       []float64 // flatten scratch
	zeroLogits []float64
	probsBuf   []float64
	ce         nn.CEScratch
	params     []nn.Param
}

// NewFlatModel builds the baseline with a comparable parameter budget.
func NewFlatModel(nTargets, nFeat, classes int, hidden []int, seed int64) *FlatModel {
	if hidden == nil {
		hidden = []int{64, 16}
	}
	rng := sim.NewRNG(seed ^ 0xf1a7)
	sizes := append([]int{nTargets * nFeat}, hidden...)
	sizes = append(sizes, classes)
	return newFlatModel(nn.MLP(rng, sizes...), nTargets, nFeat, classes)
}

func newFlatModel(net *nn.Sequential, nTargets, nFeat, classes int) *FlatModel {
	m := &FlatModel{
		Net:      net,
		nTargets: nTargets, nFeat: nFeat, classes: classes,
		flat:       make([]float64, 0, nTargets*nFeat),
		zeroLogits: make([]float64, classes),
		probsBuf:   make([]float64, classes),
	}
	m.params = m.Net.Params()
	return m
}

// Replica implements Model.
func (m *FlatModel) Replica() Model {
	return newFlatModel(m.Net.Replica(), m.nTargets, m.nFeat, m.classes)
}

func (m *FlatModel) flatten(vectors [][]float64) []float64 {
	x := m.flat[:0]
	for _, v := range vectors {
		x = append(x, v...)
	}
	m.flat = x
	return x
}

// Probs implements Model. The returned slice is freshly allocated.
func (m *FlatModel) Probs(vectors [][]float64) []float64 {
	logits := m.Net.Forward(m.flatten(vectors))
	m.Net.BackwardNoDX(m.zeroLogits)
	nn.ZeroGrads(m.params)
	return nn.Softmax(logits)
}

// Predict implements Model; allocation-free like KernelModel.Predict.
func (m *FlatModel) Predict(vectors [][]float64) int {
	logits := m.Net.Forward(m.flatten(vectors))
	m.Net.BackwardNoDX(m.zeroLogits)
	nn.ZeroGrads(m.params)
	return argmax(nn.SoftmaxInto(m.probsBuf, logits))
}

// ProbsInto implements BatchPredictor; see KernelModel.ProbsInto.
func (m *FlatModel) ProbsInto(dst []float64, vectors [][]float64) []float64 {
	return nn.SoftmaxInto(dst, m.Net.Infer(m.flatten(vectors)))
}

// LossAndGrad implements Model.
func (m *FlatModel) LossAndGrad(vectors [][]float64, label int, weight float64) float64 {
	logits := m.Net.Forward(m.flatten(vectors))
	loss, dlogits := m.ce.SoftmaxCE(logits, label, weight)
	m.Net.BackwardNoDX(dlogits)
	return loss
}

// Params implements Model.
func (m *FlatModel) Params() []nn.Param { return m.params }

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

var _ BatchPredictor = (*KernelModel)(nil)
var _ BatchPredictor = (*FlatModel)(nil)
