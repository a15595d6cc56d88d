package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/fault"
	"quanterference/internal/forecast"
	"quanterference/internal/lustre"
	"quanterference/internal/mitigate"
	"quanterference/internal/ml"
	"quanterference/internal/obs"
	"quanterference/internal/online"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

// controlInput is the seeded mitigation cell: a protected write stream, a
// read burst arriving mid-run, and a fail-slow disk under the target.
type controlInput struct {
	seed    int64
	faults  []fault.Spec
	arrival sim.Time
}

func controlInputs(seed int64) controlInput {
	rng := rand.New(rand.NewSource(seed))
	return controlInput{
		seed:    seed,
		arrival: sim.Time(5000+rng.Intn(2000)) * sim.Millisecond,
		faults: []fault.Spec{{
			Kind: fault.DiskSlow, Target: fmt.Sprintf("ost%d", rng.Intn(6)),
			Start: 8 * sim.Second, Duration: 20 * sim.Second, Severity: 3,
		}},
	}
}

// paperTargets is the storage-target count of lustre.PaperTopology: six
// OSTs and the MDT.
const paperTargets = 7

// protectedTarget is the mitigated application: a sequential write long
// enough (about 20 one-second windows alone) for the forecaster's history
// to warm up before the interference arrives.
func protectedTarget() core.TargetSpec {
	return core.TargetSpec{
		Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/protected", Ranks: 4, EasyFileBytes: 2 << 30}),
		Nodes: targetNodes, Ranks: 4,
	}
}

func readBurst(prefix string, start sim.Time) []core.InterferenceSpec {
	var out []core.InterferenceSpec
	for i := 0; i < 2; i++ {
		out = append(out, core.InterferenceSpec{
			Gen: io500.New(io500.IorEasyRead, io500.Params{
				Dir: fmt.Sprintf("%s/inst%d", prefix, i), Ranks: 6, EasyFileBytes: 32 << 20}),
			Nodes: interfNodes, Ranks: 6, StartAt: start,
		})
	}
	return out
}

type controlInstance struct {
	in controlInput
	fw *core.Framework
	fc *forecast.Forecaster
}

// setupControl trains the classifier and forecaster the mitigation
// controller runs on, from a collection whose interference arrives
// mid-run so windows turn degraded part-way.
func setupControl(seed int64) (instance, error) {
	in := controlInputs(seed)
	var variants []core.Variant
	for i, at := range []sim.Time{3 * sim.Second, 6 * sim.Second, 9 * sim.Second} {
		variants = append(variants, core.Variant{
			Name: fmt.Sprintf("read-burst-t%d", at/sim.Second), Interference: readBurst(fmt.Sprintf("/v%d", i), at)})
	}
	ds, err := core.CollectDatasetE(core.Scenario{Target: protectedTarget(), MaxTime: 240 * sim.Second},
		variants, core.CollectorConfig{IncludeBaseline: true})
	if err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	train := ml.TrainConfig{Epochs: 30, Seed: seed}
	fw, _, err := core.TrainFrameworkE(ds, core.FrameworkConfig{Seed: seed, Train: train})
	if err != nil {
		return nil, fmt.Errorf("train classifier: %w", err)
	}
	fc, _, err := core.TrainForecasterCtx(context.Background(), ds, core.ForecasterConfig{Train: train, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("train forecaster: %w", err)
	}
	return &controlInstance{in: in, fw: fw, fc: fc}, nil
}

func (c *controlInstance) close() {}

// mitigationRun is one live cluster: the protected target under the fault,
// alone (protect false) or with the read burst and a proactive-throttle
// controller fed by the forecaster. It returns the target's simulated
// duration, the controller's obs counters and the cluster's.
func (c *controlInstance) mitigationRun(protect bool) (sim.Time, *obs.Snapshot, *obs.Snapshot, error) {
	simSink, ctrlSink := obs.New(), obs.New()
	cl := core.NewCluster(lustre.PaperTopology(), lustre.Config{}).Instrument(simSink)
	if err := cl.InjectFaults(c.in.faults); err != nil {
		return 0, nil, nil, err
	}
	fw, err := c.fw.Clone()
	if err != nil {
		return 0, nil, nil, err
	}
	fc, err := c.fc.Clone()
	if err != nil {
		return 0, nil, nil, err
	}
	var done sim.Time
	var ctrl *mitigate.Controller
	var interf []*workload.Runner
	spec := protectedTarget()
	target := &workload.Runner{
		FS: cl.FS, Name: "protected", Nodes: spec.Nodes, Ranks: spec.Ranks, Gen: spec.Gen,
		OnRecord: func(rec workload.Record) {
			if ctrl != nil {
				ctrl.Record(rec)
			}
		},
		OnDone: func() {
			done = cl.Eng.Now()
			for _, r := range interf {
				r.Stop()
			}
			if ctrl != nil {
				ctrl.Stop()
			}
		},
	}
	if protect {
		for _, is := range readBurst("/burst", 0) {
			r := &workload.Runner{FS: cl.FS, Name: is.Gen.Name(), Nodes: is.Nodes, Ranks: is.Ranks, Gen: is.Gen, Loop: true}
			interf = append(interf, r)
			cl.Eng.Schedule(c.in.arrival, r.Start)
		}
		policy, err := mitigate.NewProactiveThrottle(mitigate.WithReleaseAfter(2), mitigate.WithLead(4))
		if err != nil {
			return 0, nil, nil, err
		}
		var victims []mitigate.Victim
		for _, node := range interfNodes {
			victims = append(victims, mitigate.Victim{Client: cl.FS.Client(node)})
		}
		ctrl, err = mitigate.NewController(cl, fw, victims, sim.Second, policy,
			mitigate.WithForecaster(fc), mitigate.WithSink(ctrlSink))
		if err != nil {
			return 0, nil, nil, err
		}
	}
	target.Start()
	cl.Eng.RunUntil(240 * sim.Second)
	if done == 0 {
		return 0, nil, nil, errors.New("protected target did not finish within 240 s")
	}
	return done, ctrlSink.Snapshot(), simSink.Snapshot(), nil
}

// episodeResult is one control-loop op.
type episodeResult struct {
	smoke               *online.SmokeResult
	rejectS             float64 // host time of the forced-reject phase (retrains only)
	alone, protected    sim.Time
	ctrlStats, simStats *obs.Snapshot
}

func (c *controlInstance) episode(tr *tracer, parent int64) (*episodeResult, error) {
	r := &episodeResult{}
	var rejectStart time.Time
	sp := tr.begin("online.SmokeEpisode", parent, -1, 0)
	smoke, err := online.SmokeEpisode(context.Background(), online.SmokeConfig{
		Seed:   c.in.seed,
		Hammer: runtime.NumCPU(),
		// SmokeEpisode calls Log synchronously between its phases.
		Log: func(format string, args ...interface{}) {
			switch {
			case strings.HasPrefix(format, "phase 3: forced-reject"):
				rejectStart = time.Now()
			case strings.HasPrefix(format, "phase 3: %d rejection"):
				r.rejectS = time.Since(rejectStart).Seconds()
			}
		},
	})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("SmokeEpisode: %w", err)
	}
	r.smoke = smoke
	sp = tr.begin("mitigate alone", parent, -1, 0)
	r.alone, _, _, err = c.mitigationRun(false)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("mitigate proactive", parent, -1, 0)
	r.protected, r.ctrlStats, r.simStats, err = c.mitigationRun(true)
	sp.end()
	return r, err
}

// measure runs whole episodes until d has elapsed (the episode in progress
// completes). One op is one episode: the online smoke episode with
// runtime.NumCPU() hammer clients, then the mitigation pair. Every episode
// must see zero hammer errors and repeat the first episode's decision
// timeline, simulated durations and counters exactly.
func (c *controlInstance) measure(d time.Duration, tr *tracer, pr *probe) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}, digests: map[string]string{}}
	var eps []*episodeResult
	deadline := time.Now().Add(d)
	for len(eps) == 0 || time.Now().Before(deadline) {
		sp := tr.begin("episode", 0, -1, 0)
		t0 := time.Now()
		r, err := c.episode(tr, sp.id)
		sp.end()
		out.attempted++
		if err == nil && r.smoke.HammerErr > 0 {
			err = fmt.Errorf("%d hammer predictions failed during hot reloads", r.smoke.HammerErr)
		}
		if err == nil && len(eps) > 0 {
			f := eps[0]
			switch {
			case strings.Join(r.smoke.Timeline, "\n") != strings.Join(f.smoke.Timeline, "\n"):
				err = errors.New("decision timeline differs from the first episode's on the same seed")
			case r.alone != f.alone || r.protected != f.protected ||
				snapshotFingerprint(r.simStats) != snapshotFingerprint(f.simStats) ||
				snapshotFingerprint(r.ctrlStats) != snapshotFingerprint(f.ctrlStats):
				err = errors.New("mitigation run differs from the first episode's on the same seed")
			}
		}
		if err != nil {
			out.failed++
			return nil, err
		}
		out.ops = append(out.ops, float64(time.Since(t0))/1e6)
		eps = append(eps, r)
		pr.between()
	}
	f := eps[0]
	m := out.layer
	m["episode_s"] = median(out.ops) / 1e3
	m["victim_slowdown"] = float64(f.protected) / float64(f.alone)
	m["online.drift_trips"] = float64(f.smoke.DriftTrips)
	m["online.retrains"] = float64(f.smoke.Retrains)
	m["online.promotions"] = float64(f.smoke.Promotions)
	m["online.rejections"] = float64(f.smoke.Rejections)
	var retrainMS []float64
	for _, r := range eps {
		if r.smoke.Rejections > 0 {
			retrainMS = append(retrainMS, r.rejectS*1e3/float64(r.smoke.Rejections))
		}
	}
	m["online.retrain_ms"] = median(retrainMS)
	ct := func(name string) float64 { return float64(f.ctrlStats.CounterTotal("mitigate", name)) }
	m["mitigate.engagements"] = ct("engagements")
	m["mitigate.windows_throttled"] = ct("windows_throttled")
	m["mitigate.bytes_deferred"] = ct("bytes_deferred")
	var totals simTotals
	totals.add(f.simStats, float64(f.protected), paperTargets)
	totals.report(m)
	out.digests["timeline"] = hashHex(strings.Join(f.smoke.Timeline, "\n"))
	out.digests["weights"] = ml.WeightsDigest(f.smoke.PromotedWeights)
	out.digests["sim"] = hashHex(fmt.Sprintf("alone=%d protected=%d\n%s", f.alone, f.protected,
		snapshotFingerprint(f.simStats)))
	return out, nil
}
