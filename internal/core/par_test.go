package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"quanterference/internal/fault"
	"quanterference/internal/hw"
	"quanterference/internal/obs"
	"quanterference/internal/par"
	"quanterference/internal/sim"
	"quanterference/internal/workload/io500"
)

// parScenarios are small runs covering each pooled path: striped writes
// under read interference, readahead reads against writers, metadata, an
// NVMe backend, burst buffers, and a fault with RPC timeouts armed.
func parScenarios() []func() Scenario {
	small := func(task io500.Task, dir string, ranks int) TargetSpec {
		return TargetSpec{Gen: io500.New(task, io500.Params{Dir: dir, Ranks: ranks,
			EasyFileBytes: 48 << 20, HardOps: 60, MdtFiles: 40}), Nodes: []string{"c0", "c1"}, Ranks: ranks}
	}
	return []func() Scenario{
		func() Scenario {
			return Scenario{Target: small(io500.IorEasyWrite, "/p0", 2),
				Interference: []InterferenceSpec{readInterference("/p0bg", 2)}}
		},
		func() Scenario {
			s := Scenario{Target: small(io500.IorEasyRead, "/p1", 2), OSTSkew: 3,
				Interference: []InterferenceSpec{{Gen: io500.New(io500.IorEasyWrite,
					io500.Params{Dir: "/p1bg", Ranks: 2, EasyFileBytes: 16 << 20}),
					Nodes: []string{"c2", "c3"}, Ranks: 2, StartAt: 20 * sim.Millisecond}}}
			return s
		},
		func() Scenario {
			return Scenario{Hardware: hw.NVMeProfile(), Target: small(io500.MdtHardWrite, "/p2", 2),
				Interference: []InterferenceSpec{readInterference("/p2bg", 2)}}
		},
		func() Scenario {
			return Scenario{Hardware: hw.BurstBufferProfile(), Target: small(io500.IorHardWrite, "/p3", 2)}
		},
		func() Scenario {
			s := Scenario{Target: small(io500.IorEasyWrite, "/p4", 2),
				Interference: []InterferenceSpec{readInterference("/p4bg", 2)},
				Faults: []fault.Spec{{Kind: fault.OSTStall, Target: "ost0", Start: 5 * sim.Millisecond,
					Duration: 600 * sim.Millisecond}}}
			s.FSConfig.RPCTimeout = 100 * sim.Millisecond
			return s
		},
	}
}

// runFingerprint renders everything a run's determinism covers: duration,
// completion, record count and every obs counter, gauge and histogram.
func runFingerprint(res *RunResult) string {
	return fmt.Sprintf("dur=%d fin=%v recs=%d windows=%d\n%s",
		res.Duration, res.Finished, len(res.Records), len(res.Windows), res.Stats.Render())
}

// TestParallelRunsMatchSerial runs every scenario twice through par with 4
// workers (GOMAXPROCS 4, so no t.Parallel) and checks each run's statistics
// equal a serial run's: the continuation pools belong to each run's own
// engine, network and file system, so concurrent runs cannot observe one
// another.
func TestParallelRunsMatchSerial(t *testing.T) {
	builds := parScenarios()
	want := make([]string, len(builds))
	for i, b := range builds {
		res := Run(b())
		if !res.Finished {
			t.Fatalf("scenario %d did not finish", i)
		}
		want[i] = runFingerprint(res)
	}
	got := make([]string, 2*len(builds))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	par.Map(len(got), func(i int) {
		got[i] = runFingerprint(Run(builds[i%len(builds)]()))
	})
	for i, fp := range got {
		if fp != want[i%len(builds)] {
			t.Fatalf("scenario %d (parallel run %d) diverged from its serial run:\n%s\nvs\n%s",
				i%len(builds), i, fp, want[i%len(builds)])
		}
	}
}

// TestSharedSinkCollectMatchesPrivateRuns checks the run-sharded sink: a
// parallel CollectDatasetE on one shared sink (GOMAXPROCS 4, so no
// t.Parallel) ends with every integer counter equal to the sum over the
// same runs made one by one on private sinks, every gauge at their maximum
// and every histogram's count at their sum.
func TestSharedSinkCollectMatchesPrivateRuns(t *testing.T) {
	base := Scenario{Target: smallTarget()}
	var variants []Variant
	for i := 0; i < 4; i++ {
		variants = append(variants, Variant{
			Interference: []InterferenceSpec{readInterference(fmt.Sprintf("/bg%d", i), 2)},
		})
	}
	runs := []Scenario{base}
	for _, v := range variants {
		s := base
		s.Interference = v.Interference
		runs = append(runs, s)
	}
	counters := map[obs.Key]uint64{}
	gauges := map[obs.Key]float64{}
	hists := map[obs.Key]uint64{}
	for i, s := range runs {
		res, err := RunE(s)
		if err != nil || !res.Finished {
			t.Fatalf("private run %d: finished=%v err=%v", i, res != nil && res.Finished, err)
		}
		for _, c := range res.Stats.Counters {
			counters[c.Key] += c.Value
		}
		for _, g := range res.Stats.Gauges {
			gauges[g.Key] = math.Max(gauges[g.Key], g.Value)
		}
		for _, h := range res.Stats.Histograms {
			hists[h.Key] += h.Count
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sink := obs.New()
	var report CollectReport
	if _, err := CollectDatasetE(base, variants, CollectorConfig{},
		WithSink(sink), WithCollectReport(&report)); err != nil {
		t.Fatal(err)
	}
	if report.Completed != len(variants) {
		t.Fatalf("report = %+v, want every variant completed", report)
	}
	snap := sink.Snapshot()
	if len(snap.Counters) != len(counters) || len(snap.Gauges) != len(gauges) ||
		len(snap.Histograms) != len(hists) {
		t.Fatalf("shared sink has %d/%d/%d counters/gauges/histograms, private runs %d/%d/%d",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms),
			len(counters), len(gauges), len(hists))
	}
	for _, c := range snap.Counters {
		if c.Value != counters[c.Key] {
			t.Errorf("counter %s = %d, private runs sum to %d", c.Key, c.Value, counters[c.Key])
		}
	}
	for _, g := range snap.Gauges {
		if g.Value != gauges[g.Key] {
			t.Errorf("gauge %s = %g, private runs peak at %g", g.Key, g.Value, gauges[g.Key])
		}
	}
	for _, h := range snap.Histograms {
		if h.Count != hists[h.Key] {
			t.Errorf("histogram %s count = %d, private runs sum to %d", h.Key, h.Count, hists[h.Key])
		}
	}
	if n := snap.CounterTotal("engine", "events_executed"); n == 0 {
		t.Error("no engine events recorded on the shared sink")
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// calls, so RunCtx is cancelled after a fixed number of window boundaries.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestCanceledRunMergesIntoSink: a run cancelled part-way still folds what
// it recorded into the WithSink sink, as every other way out of RunCtx does.
func TestCanceledRunMergesIntoSink(t *testing.T) {
	big := TargetSpec{
		Gen:   io500.New(io500.IorEasyWrite, io500.Params{Dir: "/big", Ranks: 2, EasyFileBytes: 1 << 30}),
		Nodes: []string{"c0"},
		Ranks: 2,
	}
	sink := obs.New()
	res, err := RunCtx(&cancelAfter{Context: context.Background(), n: 2}, Scenario{Target: big}, WithSink(sink))
	if res != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunCtx = %v, %v; want nil, ErrCanceled", res, err)
	}
	snap := sink.Snapshot()
	if n := snap.CounterTotal("engine", "events_executed"); n == 0 {
		t.Fatal("cancelled run left no engine events on the shared sink")
	}
	if n := snap.CounterTotal("disk", "requests"); n == 0 {
		t.Fatal("cancelled run left no disk requests on the shared sink")
	}
}
