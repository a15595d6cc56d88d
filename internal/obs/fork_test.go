package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"quanterference/internal/par"
)

func TestForkMergeNilSafety(t *testing.T) {
	var nilSink *Sink
	f := nilSink.Fork()
	if f == nil {
		t.Fatal("nil.Fork() = nil, want a fresh sink")
	}
	f.Counter("c", "", "n").Inc()
	if v, ok := f.Snapshot().Counter("c", "", "n"); !ok || v != 1 {
		t.Fatalf("fork of nil sink: counter = %d, %v", v, ok)
	}
	if f.TraceEnabled() {
		t.Error("fork of nil sink has tracing on")
	}
	nilSink.Merge(f) // no-op, no panic
	s := New()
	s.Merge(nil)
	if !s.Snapshot().Empty() {
		t.Error("Merge(nil) registered metrics")
	}
}

func TestMergeSelfPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("merging a sink into itself did not panic")
		}
	}()
	s.Merge(s)
}

func TestMergeAddsCountersAndMaxesGauges(t *testing.T) {
	parent := New()
	parent.Counter("eng", "", "events").Add(5)
	parent.Gauge("eng", "", "max_depth").Max(7)

	a, b := parent.Fork(), parent.Fork()
	if !a.Snapshot().Empty() {
		t.Fatal("fork starts with the parent's metrics")
	}
	a.Counter("eng", "", "events").Add(10)
	a.Gauge("eng", "", "max_depth").Max(3)
	a.Counter("disk", "ost0", "requests") // registered, never incremented
	b.Counter("eng", "", "events").Add(100)
	b.Gauge("eng", "", "max_depth").Max(12)
	parent.Merge(a)
	parent.Merge(b)

	snap := parent.Snapshot()
	if v, _ := snap.Counter("eng", "", "events"); v != 115 {
		t.Errorf("events = %d, want 5+10+100", v)
	}
	if v, ok := snap.Counter("disk", "ost0", "requests"); !ok || v != 0 {
		t.Errorf("zero counter: %d, %v; want registered at 0", v, ok)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != 12 {
		t.Errorf("gauges = %+v, want max_depth 12", snap.Gauges)
	}
	// The child is left as it was.
	if v, _ := a.Snapshot().Counter("eng", "", "events"); v != 10 {
		t.Errorf("child events after merge = %d, want 10", v)
	}
}

func TestMergeAddsHistograms(t *testing.T) {
	bounds := []float64{10, 100}
	parent := New()
	parent.Histogram("ost", "ost0", "lat", bounds).Observe(5)
	child := parent.Fork()
	h := child.Histogram("ost", "ost0", "lat", bounds)
	for _, v := range []float64{1, 50, 500, 1000} {
		h.Observe(v)
	}
	child.Histogram("mds", "", "lat", bounds).Observe(20) // absent in parent
	parent.Merge(child)

	snap := parent.Snapshot()
	if len(snap.Histograms) != 2 {
		t.Fatalf("histograms = %d, want 2", len(snap.Histograms))
	}
	mds, ost := snap.Histograms[0], snap.Histograms[1]
	if mds.Count != 1 || mds.Sum != 20 || mds.Counts[1] != 1 {
		t.Errorf("mds histogram = %+v", mds)
	}
	want := []uint64{2, 1, 2}
	for i, w := range want {
		if ost.Counts[i] != w {
			t.Errorf("ost bucket %d = %d, want %d", i, ost.Counts[i], w)
		}
	}
	if ost.Count != 5 || ost.Sum != 5+1+50+500+1000 {
		t.Errorf("ost count/sum = %d/%g, want 5/1556", ost.Count, ost.Sum)
	}
}

func TestMergeHistogramBoundsMismatchPanics(t *testing.T) {
	parent := New()
	parent.Histogram("ost", "", "lat", []float64{10, 100})
	child := parent.Fork()
	child.Histogram("ost", "", "lat", []float64{10, 1000}).Observe(1)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "ost/lat") {
			t.Fatalf("recover() = %v, want a panic naming ost/lat", r)
		}
	}()
	parent.Merge(child)
}

// TestForkSharesTraceBuffer checks that spans recorded on forks, from
// concurrent goroutines, land in the parent's exported trace.
func TestForkSharesTraceBuffer(t *testing.T) {
	parent := New()
	parent.EnableTrace(0)
	par.Map(4, func(i int) {
		f := parent.Fork()
		if !f.TraceEnabled() {
			t.Error("fork of a traced sink has tracing off")
		}
		f.Span("disk", "ost0", "io", int64(i)*1000, 500)
		parent.Merge(f)
	})
	if n := parent.TraceSpans(); n != 4 {
		t.Fatalf("parent holds %d spans, want 4", n)
	}
	var buf bytes.Buffer
	if err := parent.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "disk" {
			spans++
		}
	}
	if spans != 4 {
		t.Fatalf("exported %d disk spans, want 4", spans)
	}
}

// TestConcurrentForkMerge is the run-sharded counterpart of
// TestConcurrentMutation: workers each fill a fork and merge it into one
// parent; under -race no update may be lost.
func TestConcurrentForkMerge(t *testing.T) {
	parent := New()
	const workers, perWorker = 16, 500
	par.Map(workers, func(i int) {
		f := parent.Fork()
		c := f.Counter("eng", "", "events")
		g := f.Gauge("eng", "", "depth")
		h := f.Histogram("eng", "", "lat", []float64{10, 100})
		for j := 0; j < perWorker; j++ {
			c.Inc()
			g.Max(float64(i*perWorker + j))
			h.Observe(1)
		}
		parent.Merge(f)
	})
	snap := parent.Snapshot()
	if v, _ := snap.Counter("eng", "", "events"); v != workers*perWorker {
		t.Errorf("events = %d, want %d", v, workers*perWorker)
	}
	if g := snap.Gauges[0].Value; g != workers*perWorker-1 {
		t.Errorf("depth = %g, want %d", g, workers*perWorker-1)
	}
	if h := snap.Histograms[0]; h.Count != workers*perWorker || h.Sum != workers*perWorker {
		t.Errorf("lat count/sum = %d/%g", h.Count, h.Sum)
	}
}
