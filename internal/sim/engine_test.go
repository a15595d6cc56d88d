package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock %d, want 30", e.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestZeroDelayRunsAfterCurrentEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(1, func() {
		e.Schedule(0, func() { got = append(got, "child") })
		got = append(got, "parent")
	})
	e.Run()
	if len(got) != 2 || got[0] != "parent" || got[1] != "child" {
		t.Fatalf("got %v", got)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var ran []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.RunUntil(12)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want 2 events", ran)
	}
	if e.Now() != 12 {
		t.Fatalf("clock %d, want 12", e.Now())
	}
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("remaining events lost: %v", ran)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock %d, want 100", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i+1), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Fatalf("ran %d events after Stop, want 3", n)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending %d, want 7", e.Pending())
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %d", Seconds(1.5))
	}
	if ToSeconds(2*Second) != 2.0 {
		t.Fatalf("ToSeconds = %f", ToSeconds(2*Second))
	}
}

// Property: executing any batch of scheduled events always yields
// non-decreasing timestamps.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.Schedule(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok && e.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of executed events equals the number scheduled.
func TestPropertyAllEventsRun(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		count := 0
		for _, d := range delays {
			e.Schedule(Time(d), func() { count++ })
		}
		e.Run()
		return count == len(delays) && e.Executed() == uint64(len(delays))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEngineSteadyStateAllocFree pins the value-typed event heap: once the
// queue has grown, scheduling and running events allocates nothing.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+7, fn)
		e.Schedule(3, fn)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state At/Schedule/Step allocated %.1f times per cycle", allocs)
	}
}
