package trace

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"quanterference/internal/sim"
	"quanterference/internal/workload"
)

func sampleRecords() []workload.Record {
	return []workload.Record{
		{
			Workload: "enzo", Rank: 0, Iter: 0, Seq: 3,
			Op:    workload.Op{Kind: workload.Write, Path: "/d/f0", Offset: 1 << 20, Size: 4096},
			Start: 100, End: 250, Targets: []int{2},
		},
		{
			Workload: "enzo", Rank: 1, Iter: 2, Seq: 0,
			Op:    workload.Op{Kind: workload.Stat, Path: "/d"},
			Start: 300, End: 400, Targets: []int{6},
		},
		{
			Workload: "enzo", Rank: 0, Iter: 0, Seq: 4,
			Op:    workload.Op{Kind: workload.Read, Path: "/d/striped", Offset: 0, Size: 2 << 20},
			Start: 500, End: 900, Targets: []int{0, 1},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	recs := sampleRecords()
	for _, r := range recs {
		w.Write(r)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("count=%d", w.Count())
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range recs {
		want, have := recs[i], got[i]
		if want.Workload != have.Workload || want.Rank != have.Rank ||
			want.Iter != have.Iter || want.Seq != have.Seq ||
			want.Op != have.Op || want.Start != have.Start || want.End != have.End {
			t.Fatalf("record %d: %+v != %+v", i, have, want)
		}
		if len(want.Targets) != len(have.Targets) {
			t.Fatalf("record %d targets %v != %v", i, have.Targets, want.Targets)
		}
		for j := range want.Targets {
			if want.Targets[j] != have.Targets[j] {
				t.Fatalf("record %d target %d", i, j)
			}
		}
	}
}

func TestHeaderAndCommentsSkipped(t *testing.T) {
	in := Header + "\n# a comment\n\nenzo\t0\t0\t0\tread\t/f\t0\t10\t1\t2\t0\n"
	recs, err := Read(strings.NewReader(in))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestRejectsMalformedLines(t *testing.T) {
	cases := []string{
		"too\tfew\tfields",
		"w\t0\t0\t0\tbogus-kind\t/f\t0\t10\t1\t2\t0",
		"w\tx\t0\t0\tread\t/f\t0\t10\t1\t2\t0",
		"w\t0\t0\t0\tread\t/f\t0\t10\t5\t2\t0", // end < start
		"w\t0\t0\t0\tread\t/f\t0\t10\t1\t2\tzz",
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); !errors.Is(err, ErrMalformed) {
			t.Fatalf("Read(%q) = %v, want ErrMalformed", c, err)
		}
	}
}

func TestSanitizesSeparators(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Write(workload.Record{
		Workload: "w\tith\ttabs",
		Op:       workload.Op{Kind: workload.Open, Path: "/p\nnewline"},
		Targets:  []int{6},
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(strings.NewReader(b.String()))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	if strings.ContainsAny(recs[0].Op.Path, "\t\n") {
		t.Fatalf("path not sanitized: %q", recs[0].Op.Path)
	}
}

func TestEmptyPathRoundTrips(t *testing.T) {
	var b strings.Builder
	w := NewWriter(&b)
	w.Write(workload.Record{Op: workload.Op{Kind: workload.Compute}})
	_ = w.Flush()
	recs, err := Read(strings.NewReader(b.String()))
	if err != nil || len(recs) != 1 || recs[0].Op.Path != "" {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
}

// Property: arbitrary records survive a round trip.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(rank, iter, seq uint8, kindRaw uint8, off, size uint32, start uint32, durRaw uint16, tgt uint8) bool {
		kind := workload.Kind(kindRaw % 9)
		rec := workload.Record{
			Workload: "w",
			Rank:     int(rank), Iter: int(iter), Seq: int(seq),
			Op: workload.Op{
				Kind: kind, Path: "/p", Offset: int64(off), Size: int64(size),
			},
			Start:   sim.Time(start),
			End:     sim.Time(start) + sim.Time(durRaw),
			Targets: []int{int(tgt % 7)},
		}
		var b strings.Builder
		w := NewWriter(&b)
		w.Write(rec)
		if w.Flush() != nil {
			return false
		}
		got, err := Read(strings.NewReader(b.String()))
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		return g.Op == rec.Op && g.Start == rec.Start && g.End == rec.End &&
			g.Rank == rec.Rank && g.Iter == rec.Iter && g.Seq == rec.Seq &&
			len(g.Targets) == 1 && g.Targets[0] == rec.Targets[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsNegativeFields pins that no integer column may be negative:
// each line below used to parse as a valid record.
func TestRejectsNegativeFields(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"w\t-3\t0\t0\tread\t/f\t-5\t-7\t-9\t-1\t-", "negative rank -3"},
		{"w\t0\t-1\t0\tread\t/f\t0\t10\t1\t2\t0", "negative iter -1"},
		{"w\t0\t0\t-2\tread\t/f\t0\t10\t1\t2\t0", "negative seq -2"},
		{"w\t0\t0\t0\tread\t/f\t-5\t10\t1\t2\t0", "negative offset -5"},
		{"w\t0\t0\t0\tread\t/f\t0\t-7\t1\t2\t0", "negative size -7"},
		{"w\t0\t0\t0\tread\t/f\t0\t10\t-9\t2\t0", "negative start -9"},
		{"w\t0\t0\t0\tread\t/f\t0\t10\t1\t2\t0,-4", "negative target -4"},
	} {
		in := Header + "\nenzo\t0\t0\t0\tread\t/f\t0\t10\t1\t2\t0\n" + tc.line + "\n"
		recs, err := Read(strings.NewReader(in))
		if recs != nil || !errors.Is(err, ErrMalformed) {
			t.Fatalf("Read(%q) = %v, %v; want nil, ErrMalformed", tc.line, recs, err)
		}
		if !strings.Contains(err.Error(), "line 3: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Read(%q) error %q, want line 3 and %q", tc.line, err, tc.want)
		}
	}
}

// TestRejectsOverlongLine: a line past the 1 MiB limit is a numbered
// ErrMalformed, not a bare scanner error.
func TestRejectsOverlongLine(t *testing.T) {
	in := Header + "\nw\t0\t0\t0\tread\t/" + strings.Repeat("a", maxLine) + "\t0\t1\t0\t1\t0\n"
	_, err := Read(strings.NewReader(in))
	if !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "line 2: ") {
		t.Fatalf("Read(overlong line) = %v, want a line-2 ErrMalformed", err)
	}
}

// FuzzRead feeds arbitrary text to Read: whatever it accepts must survive
// a Writer → Read round trip unchanged.
func FuzzRead(f *testing.F) {
	f.Add(Header + "\nenzo\t0\t0\t3\twrite\t/d/f0\t1048576\t4096\t100\t250\t2\n")
	f.Add("w\t1\t2\t0\tstat\t-\t0\t0\t300\t400\t0,1\n# comment\n\n")
	f.Add("w\t-3\t0\t0\tread\t/f\t-5\t-7\t-9\t-1\t-\n")
	f.Fuzz(func(t *testing.T, in string) {
		recs, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var b strings.Builder
		w := NewWriter(&b)
		for _, r := range recs {
			w.Write(r)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := Read(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("re-read of written records failed: %v\n%s", err, b.String())
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("round trip changed records:\n%+v\n%+v", recs, again)
		}
	})
}
