package core

import (
	"fmt"
	"runtime"
	"testing"

	"quanterference/internal/fault"
	"quanterference/internal/hw"
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
