package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"quanterference/internal/core"
)

// scenarioText renders everything a scenario's run depends on that the
// benchmark seeds; generators print their parameters at top level.
func scenarioText(s core.Scenario) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hw=%+v skew=%d rpc=%d faults=%v target=%+v\n",
		s.Hardware, s.OSTSkew, s.FSConfig.RPCTimeout, s.Faults, s.Target.Gen)
	for _, is := range s.Interference {
		fmt.Fprintf(&b, "  interf at=%d ranks=%d gen=%+v\n", is.StartAt, is.Ranks, is.Gen)
	}
	return b.String()
}

// inputText renders every workload's seeded inputs.
func inputText(seed int64) map[string]string {
	var sim strings.Builder
	for _, c := range simCases(seed) {
		fmt.Fprintf(&sim, "%s: %s", c.name, scenarioText(c.build()))
	}
	ci := collectInputs(seed)
	var col strings.Builder
	col.WriteString(scenarioText(ci.base))
	for _, v := range ci.variants {
		fmt.Fprintf(&col, "%s: %s", v.Name, scenarioText(core.Scenario{Interference: v.Interference}))
	}
	rng := rand.New(rand.NewSource(seed))
	unique := 0
	due, reqs := schedule(rng, nominalRate, 500, &unique)
	corpus := synthCorpus(rand.New(rand.NewSource(seed)))
	serveIn := fmt.Sprintf("%v %v %v", due, reqs, corpus.Digest())
	return map[string]string{
		"sim-interference": sim.String(),
		"collect-train":    col.String(),
		"serve-fleet":      serveIn,
		"control-loop":     fmt.Sprintf("%+v", controlInputs(seed)),
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, b, c := inputText(7), inputText(7), inputText(8)
	for _, w := range workloads {
		if a[w.name] == "" {
			t.Fatalf("%s: no input rendered", w.name)
		}
		if a[w.name] != b[w.name] {
			t.Errorf("%s: the same seed generated different inputs", w.name)
		}
		if a[w.name] == c[w.name] {
			t.Errorf("%s: different seeds generated identical inputs", w.name)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 999 samples accepted: only 9 lie beyond it")
	}
	xs = append(xs, 1000)
	v, err := percentile(xs, 99)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with ten samples beyond", v, err)
	}
	if _, err := percentile(xs[:10], 50); err == nil {
		t.Error("p50 of 10 samples accepted: only 5 lie beyond it")
	}
	p, _, ok := tail(xs[:150])
	if !ok || p != 90 {
		t.Errorf("tail of 150 samples picked p%v (ok %v), want p90", p, ok)
	}
	if _, _, ok := tail(xs[:30]); ok {
		t.Error("tail of 30 samples reported: no ladder percentile has ten beyond it")
	}
}

// fakeClock is a virtual clock for one sender: sleeping jumps time forward
// and a send advances it by its service time.
type fakeClock struct {
	mu sync.Mutex
	t  time.Duration
}

func (c *fakeClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleepUntil(t time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t += d
	c.mu.Unlock()
}

// TestOpenLoopChargesStallToLaterRequests: requests due every 10 ms, each
// served in 1 ms, except request 2, which stalls 100 ms. Timed from their
// due times, the requests queued behind the stall carry its delay; timed
// from their send times they would all read 1 ms.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	clk := &fakeClock{}
	var due []time.Duration
	for i := 0; i < 20; i++ {
		due = append(due, time.Duration(i)*10*time.Millisecond)
	}
	res := runOpenLoop(clk, due, 1, time.Hour, func(i, _ int) {
		if i == 2 {
			clk.advance(100 * time.Millisecond)
			return
		}
		clk.advance(time.Millisecond)
	})
	ms := func(i int) float64 { return float64(res.latency[i]) / 1e6 }
	// Request 2 is sent at 20 ms and done at 120 ms; request 3 (due 30 ms)
	// is sent at 120 ms and done at 121 ms, so it waited 90 ms; each later
	// one catches up 9 ms (10 ms apart, 1 ms service).
	want := map[int]float64{0: 1, 1: 1, 2: 100, 3: 91, 4: 82, 5: 73, 12: 10, 13: 1, 19: 1}
	for i, w := range want {
		if ms(i) != w {
			t.Errorf("request %d latency %v ms, want %v ms", i, ms(i), w)
		}
	}
	if late := float64(res.lateness[3]) / 1e6; late != 90 {
		t.Errorf("request 3 lateness %v ms, want 90 ms", late)
	}
	for i, sent := range res.sent {
		if !sent {
			t.Errorf("request %d abandoned with an hour of allowed lag", i)
		}
	}
	// With 50 ms of allowed lag, a 200 ms stall abandons the requests that
	// fell more than 50 ms behind and resumes with the first one that did not.
	clk = &fakeClock{}
	res = runOpenLoop(clk, due, 1, 50*time.Millisecond, func(i, _ int) {
		if i == 2 {
			clk.advance(200 * time.Millisecond)
		}
	})
	for i, sent := range res.sent {
		if want := i < 3 || i >= 17; sent != want {
			t.Errorf("request %d sent=%v, want %v", i, sent, want)
		}
	}
}

type benchFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestPrintedMetricsMatchBenchmarkJSON runs the smallest workload through
// the command's own code path, untraced and traced, and checks that every
// metric printed is named in BENCHMARK.json with its unit, and every name
// there is printed.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	spec := &workloads[0]
	for _, tc := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		res, err := run(spec, 1, time.Second, tc.traced, "")
		if err != nil {
			t.Fatalf("traced=%v: %v", tc.traced, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var printed struct {
			Metrics map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(b, &printed); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		for _, m := range tc.want {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for name, v := range printed.Metrics {
			got[name] = v.Unit
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("traced=%v: %s printed %v", tc.traced, name, v.Value)
			}
		}
		if !reflect.DeepEqual(got, want) {
			for n, u := range got {
				if want[n] != u {
					t.Errorf("traced=%v: printed %s [%s], BENCHMARK.json has [%s]", tc.traced, n, u, want[n])
				}
			}
			for n := range want {
				if _, ok := got[n]; !ok {
					t.Errorf("traced=%v: BENCHMARK.json names %s, the command does not print it", tc.traced, n)
				}
			}
		}
		if tc.traced {
			var share float64
			for n, v := range printed.Metrics {
				if strings.HasPrefix(n, "cpu.") {
					share += v.Value
				}
			}
			if math.Abs(share-1) > 1e-9 {
				t.Errorf("cpu.* shares sum to %v, want 1", share)
			}
		}
	}
}
