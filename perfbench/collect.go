package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/ml"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
	"quanterference/internal/workload/apps"
	"quanterference/internal/workload/io500"
)

// collectInput is one seeded Figure 3/5 collection: an IO500 target re-run
// against IO500 and application-emulator interference variants.
type collectInput struct {
	base     core.Scenario
	variants []core.Variant
	seed     int64
}

// collectInputs builds the collection. The target and the variant shapes
// are fixed; the seed picks OST skew, arrival offsets and emulator seeds.
func collectInputs(seed int64) collectInput {
	rng := rand.New(rand.NewSource(seed))
	at := func() sim.Time { return sim.Time(rng.Intn(200)) * sim.Millisecond }
	io := func(name string, task io500.Task, n, ranks int) core.Variant {
		v := core.Variant{Name: name}
		for i := 0; i < n; i++ {
			p := io500.Params{Dir: fmt.Sprintf("/%s/inst%d", name, i), Ranks: ranks,
				EasyFileBytes: 32 << 20, HardOps: 300, MdtFiles: 200}
			v.Interference = append(v.Interference, core.InterferenceSpec{
				Gen: io500.New(task, p), Nodes: interfNodes, Ranks: ranks, StartAt: at()})
		}
		return v
	}
	app := func(name string, a apps.App, ranks int) core.Variant {
		p := apps.Params{Dir: "/" + name, Ranks: ranks, Cycles: 40, Seed: rng.Int63()}
		return core.Variant{Name: name, Interference: []core.InterferenceSpec{{
			Gen: apps.New(a, p), Nodes: interfNodes, Ranks: ranks, StartAt: at()}}}
	}
	in := collectInput{seed: seed}
	in.base = core.Scenario{
		Target: core.TargetSpec{
			Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/tgt", Ranks: 4, EasyFileBytes: 768 << 20}),
			Nodes: targetNodes, Ranks: 4,
		},
		OSTSkew: rng.Intn(6),
		MaxTime: 240 * sim.Second,
	}
	in.variants = []core.Variant{
		io("easy-read-x1", io500.IorEasyRead, 1, 2),
		io("easy-read-x2", io500.IorEasyRead, 2, 4),
		io("easy-read-x3", io500.IorEasyRead, 3, 6),
		io("easy-write-x1", io500.IorEasyWrite, 1, 4),
		io("easy-write-x2", io500.IorEasyWrite, 2, 4),
		io("hard-write-x1", io500.IorHardWrite, 1, 4),
		io("hard-write-x2", io500.IorHardWrite, 2, 6),
		io("mdt-easy-write-x2", io500.MdtEasyWrite, 2, 6),
		io("mdt-hard-write-x2", io500.MdtHardWrite, 2, 6),
		io("mdt-hard-read-x2", io500.MdtHardRead, 2, 6),
		app("enzo", apps.Enzo, 4),
		app("amrex", apps.AMReX, 4),
		app("openpmd", apps.OpenPMD, 4),
	}
	return in
}

type collectInstance struct {
	in    collectInput
	train ml.TrainConfig
}

func setupCollect(seed int64) (instance, error) {
	// Train as cmd/quanttrain does by default: 60 epochs on the serial
	// (Workers 0) path.
	c := &collectInstance{in: collectInputs(seed), train: ml.TrainConfig{Epochs: 60, Seed: seed}}
	// Warm-up: one collection, so heap growth and first-touch costs land
	// in set-up rather than in the first measured cycle.
	if _, err := core.CollectDatasetE(c.in.base, c.in.variants, core.CollectorConfig{IncludeBaseline: true}); err != nil {
		return nil, fmt.Errorf("warm-up collection: %w", err)
	}
	return c, nil
}

func (c *collectInstance) close() {}

// cycleResult is one collect → train → evaluate pass.
type cycleResult struct {
	collectS, trainS, evalMS float64
	collectCPU, trainCPU     float64 // CPU seconds
	trainAllocBytes          float64
	samples, trainSamples    int
	skipped                  int
	f1                       float64
	dsDigest, wDigest        string
	stats                    *obs.Snapshot
	simSpanNS                float64
	nTargets                 int
	classCounts              []int
}

func (c *collectInstance) cycle(tr *tracer, parent int64) (*cycleResult, error) {
	r := &cycleResult{}
	sink := obs.New()
	var rep core.CollectReport
	sp := tr.begin("core.CollectDatasetE", parent, -1, 0)
	cpu0, t0 := cpuTime(), time.Now()
	ds, err := core.CollectDatasetE(c.in.base, c.in.variants, core.CollectorConfig{IncludeBaseline: true},
		core.WithCollectReport(&rep), core.WithSink(sink))
	r.collectS, r.collectCPU = time.Since(t0).Seconds(), float64(cpuTime()-cpu0)/1e9
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("CollectDatasetE: %w", err)
	}
	r.skipped = len(rep.Skipped)
	r.samples = ds.Len()
	r.classCounts = ds.ClassCounts()
	r.stats = sink.Snapshot()
	r.nTargets = ds.NTargets
	// CollectDatasetE does not return run durations; each run's last
	// labelled window bounds it to window resolution.
	last := map[string]int{}
	for _, smp := range ds.Samples {
		if smp.Window+1 > last[smp.Run] {
			last[smp.Run] = smp.Window + 1
		}
	}
	for _, w := range last {
		r.simSpanNS += float64(w) * float64(sim.Second)
	}
	r.dsDigest = ds.Digest()

	cfg := core.FrameworkConfig{Seed: c.in.seed, Train: c.train}
	sp = tr.begin("core.TrainFrameworkE", parent, -1, 0)
	_, b0 := allocs()
	cpu0, t0 = cpuTime(), time.Now()
	fw, _, err := core.TrainFrameworkE(ds, cfg)
	r.trainS, r.trainCPU = time.Since(t0).Seconds(), float64(cpuTime()-cpu0)/1e9
	_, b1 := allocs()
	r.trainAllocBytes = float64(b1 - b0)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("TrainFrameworkE: %w", err)
	}
	r.wDigest = ml.WeightsDigest(fw.ExportWeights())

	// The held-out split TrainFrameworkE evaluated on, rebuilt from its
	// documented seed so ml.Evaluate can be timed on its own.
	train, test := ds.Split(0.2, c.in.seed^0x5717)
	r.trainSamples = train.Len()
	test = test.Copy()
	fw.Scaler.Transform(test)
	sp = tr.begin("ml.Evaluate", parent, -1, 0)
	t0 = time.Now()
	conf := ml.Evaluate(fw.Model, test)
	r.evalMS = float64(time.Since(t0)) / 1e6
	sp.end()
	r.f1 = conf.MacroF1()
	return r, nil
}

// checkCycle is the collect-train correctness check: a non-empty dataset
// holding both classes, with no variant skipped.
func checkCycle(r *cycleResult) error {
	if r.samples == 0 {
		return errors.New("empty dataset")
	}
	if r.skipped > 0 {
		return fmt.Errorf("%d variant(s) skipped", r.skipped)
	}
	for class, n := range r.classCounts {
		if n == 0 {
			return fmt.Errorf("class %d absent from the dataset (counts %v)", class, r.classCounts)
		}
	}
	return nil
}

// measure runs collect → train → evaluate cycles on the same inputs until d
// has elapsed (the cycle in progress completes). One op is one cycle.
// Every cycle must pass checkCycle and reproduce the first cycle's dataset
// and weight digests.
func (c *collectInstance) measure(d time.Duration, tr *tracer, pr *probe) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}, digests: map[string]string{}}
	var cycles []*cycleResult
	deadline := time.Now().Add(d)
	for len(cycles) == 0 || time.Now().Before(deadline) {
		sp := tr.begin("cycle", 0, -1, 0)
		t0 := time.Now()
		r, err := c.cycle(tr, sp.id)
		sp.end()
		out.attempted++
		if err == nil {
			err = checkCycle(r)
		}
		if err == nil && len(cycles) > 0 && (r.dsDigest != cycles[0].dsDigest || r.wDigest != cycles[0].wDigest) {
			err = errors.New("cycle digests differ from the first cycle's on the same inputs")
		}
		if err != nil {
			out.failed++
			return nil, err
		}
		out.ops = append(out.ops, float64(time.Since(t0))/1e6)
		cycles = append(cycles, r)
		pr.between()
	}

	var collectRate, trainRate, nsPerSE, collectUtil, trainUtil, trainAlloc, evalMS []float64
	epochs := float64(c.train.Epochs)
	for _, r := range cycles {
		collectRate = append(collectRate, float64(r.samples)/r.collectS)
		trainRate = append(trainRate, float64(r.trainSamples)*epochs/r.trainS)
		nsPerSE = append(nsPerSE, r.trainS*1e9/(float64(r.trainSamples)*epochs))
		collectUtil = append(collectUtil, r.collectCPU/(r.collectS*float64(runtime.NumCPU())))
		trainUtil = append(trainUtil, r.trainCPU/(r.trainS*float64(runtime.NumCPU())))
		trainAlloc = append(trainAlloc, r.trainAllocBytes)
		evalMS = append(evalMS, r.evalMS)
	}
	first := cycles[0]
	m := out.layer
	m["collect_samples_per_s"] = median(collectRate)
	m["train_samples_per_s"] = median(trainRate)
	m["test_macro_f1"] = first.f1
	m["dataset.samples"] = float64(first.samples)
	m["collect.cpu_util"] = median(collectUtil)
	m["collect.skipped"] = float64(first.skipped)
	m["train.ns_per_sample_epoch"] = median(nsPerSE)
	m["train.cpu_util"] = median(trainUtil)
	m["train.alloc_bytes"] = median(trainAlloc)
	m["ml.evaluate_ms"] = median(evalMS)
	var totals simTotals
	totals.add(first.stats, first.simSpanNS, first.nTargets)
	totals.report(m)
	out.digests["dataset"] = first.dsDigest
	out.digests["weights"] = first.wDigest
	return out, nil
}
