// Command perfbench is the repository's benchmark: one command that runs
// one of four seeded workloads through the layers' public entry points,
// checks their outputs, and prints the end-to-end figures (untraced) or the
// per-layer figures (traced) as one JSON line. NOTES.md explains the
// workloads, the metrics and how to read a traced run.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sim-interference --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// instance is one set-up workload, ready to measure.
type instance interface {
	// measure runs the workload's measured phase for about d (closed loops
	// finish the op in progress) and checks its outputs. A non-nil error is
	// a failed correctness check. tr, when non-nil, records spans; the
	// workload calls pr.between() after every op.
	measure(d time.Duration, tr *tracer, pr *probe) (*outcome, error)
	close()
}

// outcome is what one measured phase produced.
type outcome struct {
	// ops are the host times (ms) of the workload's unit of work.
	ops []float64
	// cpuMS is the process CPU time (user+sys, ms) the measured phase used.
	cpuMS float64
	// attempted and failed count operations; a failed one also fails a
	// check unless the workload documents it as a counted failure.
	attempted, failed int
	// flagged counts answered operations whose output shows a known
	// program defect that strikes by timing (the serve digest-stamp race,
	// see NOTES.md). They count in fail_frac but not in failed: a count
	// that changes with thread timing cannot repeat between runs.
	flagged int
	// layer holds the per-layer figures this workload produces; figures it
	// does not produce print as 0.
	layer map[string]float64
	// digests are printed, not pinned: deterministic fingerprints of the
	// simulated statistics, datasets, weights and decision timelines.
	digests map[string]string
}

type workloadSpec struct {
	name  string
	setup func(seed int64) (instance, error)
	// calibrated scales the end-to-end times by the calibration kernel
	// (probe.wallScale, probe.cpuScale). The closed loops are CPU-bound and slow down with
	// the kernel; serve-fleet's latency at the nominal rate (about 30 %
	// of capacity) does not follow it, so it is reported unscaled.
	calibrated bool
}

var workloads = []workloadSpec{
	{"sim-interference", setupSim, true},
	{"collect-train", setupCollect, true},
	{"serve-fleet", setupServe, false},
	{"control-loop", setupControl, true},
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, and the last instance is the one measured.
const setupRepeats = 3

func main() {
	name := flag.String("workload", "", "workload to run: sim-interference, collect-train, serve-fleet, control-loop")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer figures, CPU profile, Chrome trace")
	outDir := flag.String("out", "", "directory for the Chrome trace and CPU profile of a traced run")
	flag.Parse()

	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*name, *seconds, *traceFlag)
		os.Exit(2)
	}
	res, err := run(spec, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *outDir)
	if err == nil {
		err = emit(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run sets the workload up setupRepeats times, runs its measured phase
// (twice when traced: untraced for reference, then traced) and returns the
// result line. A failed correctness check is an error: no result.
func run(spec *workloadSpec, seed int64, d time.Duration, traced bool, outDir string) (result, error) {
	pr := &probe{}
	var inst instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		pr.between()
		t0 := time.Now()
		var err error
		inst, err = spec.setup(seed)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", spec.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	out, heapMB, err := measured(inst, d, nil, pr)
	if err != nil {
		return result{}, fmt.Errorf("%s: check failed: %w", spec.name, err)
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	raw := map[string]float64{
		"setup_s":   median(setups),
		"op_p50_ms": median(out.ops),
		"op_cpu_ms": out.cpuMS / float64(out.attempted),
	}
	wall, cpu := 1.0, 1.0
	if spec.calibrated {
		wall, cpu = pr.wallScale(), pr.cpuScale()
	}
	if !traced {
		vals := map[string]float64{
			"heap_peak_mb": heapMB,
			"setup_s":      raw["setup_s"] * wall,
			"op_p50_ms":    raw["op_p50_ms"] * wall,
			"op_cpu_ms":    raw["op_cpu_ms"] * cpu,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
		if err := checkFinite(res); err != nil {
			return result{}, err
		}
		printRecord(pr, raw, wall, cpu, out.digests)
		return res, nil
	}

	// Traced run: the second pass records spans and a CPU profile and
	// supplies every per-layer figure except raw.*, which are the untraced
	// pass's. A third, untraced pass brackets it, so trace.overhead_frac
	// compares the traced pass with both neighbours rather than with a
	// first pass that still carries warm-up.
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	tout, _, err := measured(inst, d, tr, pr)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, fmt.Errorf("%s: check failed in the traced pass: %w", spec.name, err)
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	after, _, err := measured(inst, d, nil, pr)
	if err != nil {
		return result{}, fmt.Errorf("%s: check failed in the last pass: %w", spec.name, err)
	}
	vals := tout.layer
	for l, s := range shares {
		vals["cpu."+l] = s
	}
	for k, v := range raw {
		vals["raw."+k] = v
	}
	vals["fail_frac"] = ratio(float64(tout.failed+tout.flagged), float64(tout.attempted))
	vals["op.count"] = float64(len(tout.ops))
	if p, v, ok := tail(tout.ops); ok {
		vals["op.tail_ms"], vals["op.tail_pct"] = v, p
	}
	vals["env.nproc"] = float64(runtime.NumCPU())
	vals["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	vals["env.calib_ms"] = median(pr.calMS)
	vals["env.calib_cpu_ms"] = median(pr.calCPUMS)
	vals["trace.overhead_frac"] = median(tout.ops)/((median(out.ops)+median(after.ops))/2) - 1
	for k, dg := range tout.digests {
		vals["digest."+k] = digestID(dg)
	}
	for _, m := range allPerLayer() {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	if err := checkFinite(res); err != nil {
		return result{}, err
	}
	res.Attempted += tout.attempted + after.attempted
	res.Failed += tout.failed + after.failed
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return result{}, err
		}
		base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", spec.name, seed))
		if err := tr.write(base + ".trace.json"); err != nil {
			return result{}, err
		}
		if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
			return result{}, err
		}
		fmt.Printf("trace %s.trace.json profile %s.cpu.pprof\n", base, base)
	}
	printRecord(pr, raw, wall, cpu, tout.digests)
	return res, nil
}

// measured runs one measured phase from a collected heap, with the heap
// sampler running and the calibration kernel sampled on either side; it
// returns the median per-op peak live heap in MB.
func measured(inst instance, d time.Duration, tr *tracer, pr *probe) (*outcome, float64, error) {
	runtime.GC()
	pr.between()
	pr.heap = startHeapSampler()
	cpu0 := cpuTime()
	out, err := inst.measure(d, tr, pr)
	cpu1 := cpuTime()
	heap := pr.heap.stop()
	pr.heap = nil
	pr.between()
	if err != nil {
		return nil, 0, err
	}
	if len(out.ops) == 0 {
		return nil, 0, errors.New("no operation completed in the measured phase")
	}
	out.cpuMS = float64(cpu1-cpu0) / 1e6
	if out.layer == nil {
		out.layer = map[string]float64{}
	}
	return out, heap / (1 << 20), nil
}

// checkFinite rejects a result with an infinite or NaN figure — a median
// or tail that lands on failed requests — which JSON cannot carry.
func checkFinite(res result) error {
	for name, v := range res.Metrics {
		if math.IsInf(v.Value, 0) || math.IsNaN(v.Value) {
			return fmt.Errorf("%s is %v: failed requests reach that rank", name, v.Value)
		}
	}
	return nil
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// emit prints the result as the last line of standard output.
func emit(res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// printRecord prints the run's environment record, its figures before
// calibration scaling, and its digests.
func printRecord(pr *probe, raw map[string]float64, wall, cpu float64, digests map[string]string) {
	fmt.Printf("env %s\n", mustJSON(envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CalibMS:    median(pr.calMS),
	}))
	fmt.Printf("raw setup_s %.4f op_p50_ms %.4f op_cpu_ms %.4f (end-to-end: wall times x %.4f, CPU time x %.4f)\n",
		raw["setup_s"], raw["op_p50_ms"], raw["op_cpu_ms"], wall, cpu)
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("digest %s %s\n", k, digests[k])
	}
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
