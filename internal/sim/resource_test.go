package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResourceImmediateGrant(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 2)
	granted := 0
	r.Acquire(func() { granted++ })
	r.Acquire(func() { granted++ })
	if granted != 2 || r.InUse() != 2 {
		t.Fatalf("granted=%d inUse=%d", granted, r.InUse())
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []int
	r.Acquire(func() {}) // hold the only unit
	for i := 0; i < 5; i++ {
		i := i
		r.Acquire(func() { order = append(order, i); r.Release() })
	}
	if r.Waiting() != 5 {
		t.Fatalf("waiting=%d, want 5", r.Waiting())
	}
	r.Release()
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order %v not FIFO", order)
		}
	}
	if r.InUse() != 0 {
		t.Fatalf("inUse=%d after all released", r.InUse())
	}
	if r.PeakWaiting() != 5 {
		t.Fatalf("peak=%d, want 5", r.PeakWaiting())
	}
}

func TestResourceReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(NewEngine(), 1).Release()
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(NewEngine(), 0)
}

// Property: with capacity c and n holders each holding for a fixed time,
// concurrency never exceeds c and every acquirer eventually runs.
func TestPropertyResourceBounds(t *testing.T) {
	f := func(capRaw, nRaw uint8) bool {
		c := int(capRaw%8) + 1
		n := int(nRaw%64) + 1
		e := NewEngine()
		r := NewResource(e, c)
		active, peak, completed := 0, 0, 0
		for i := 0; i < n; i++ {
			e.Schedule(Time(i), func() {
				r.Acquire(func() {
					active++
					if active > peak {
						peak = active
					}
					e.Schedule(10, func() {
						active--
						completed++
						r.Release()
					})
				})
			})
		}
		e.Run()
		return peak <= c && completed == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTickerPeriodAndStop(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(e, 100, func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 4 {
			tk.Stop()
		}
	})
	e.RunUntil(10_000)
	if len(ticks) != 4 {
		t.Fatalf("ticks=%v, want 4", ticks)
	}
	for i, tt := range ticks {
		if tt != Time(100*(i+1)) {
			t.Fatalf("tick %d at %d, want %d", i, tt, 100*(i+1))
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(42).Derive(1)
	d := NewRNG(42).Derive(2)
	same := true
	for i := 0; i < 16; i++ {
		if c.Float64() != d.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("derived streams with different labels are identical")
	}
}

func TestRNGUniformRange(t *testing.T) {
	g := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(3, 5)
		if v < 3 || v >= 5 {
			t.Fatalf("Uniform out of range: %f", v)
		}
	}
}

// eagerDerive is Derive on a plain, eagerly seeded math/rand source: the
// reference the lazily seeded RNG must reproduce bit for bit.
func eagerDerive(r *rand.Rand, label int64) *rand.Rand {
	mix := uint64(r.Int63()) ^ (uint64(label) * 0x9e3779b97f4a7c15)
	return rand.New(rand.NewSource(int64(mix >> 1)))
}

// TestRNGLazySeedingMatchesEager checks that seeding on first use changes no
// stream: direct draws, Derive chains several levels deep, and children
// derived from parents that never drew themselves all equal eagerly seeded
// sources.
func TestRNGLazySeedingMatchesEager(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		lazy := NewRNG(seed)
		eager := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if lazy.Float64() != eager.Float64() || lazy.Intn(1000) != eager.Intn(1000) ||
				lazy.Int63n(1<<50) != eager.Int63n(1<<50) || lazy.NormFloat64() != eager.NormFloat64() {
				t.Fatalf("seed %d draw %d: lazy stream diverged from eager", seed, i)
			}
		}
		// A chain of derives from a parent that has never drawn.
		lz, eg := NewRNG(seed), rand.New(rand.NewSource(seed))
		for depth := int64(0); depth < 4; depth++ {
			lz, eg = lz.Derive(depth*31+5), eagerDerive(eg, depth*31+5)
		}
		for i := 0; i < 20; i++ {
			if lz.Int63n(1<<62) != eg.Int63n(1<<62) {
				t.Fatalf("seed %d: derive chain diverged at draw %d", seed, i)
			}
		}
		// Siblings: several children of one parent, drawn out of order.
		lp, ep := NewRNG(seed), rand.New(rand.NewSource(seed))
		var lk []*RNG
		var ek []*rand.Rand
		for label := int64(0); label < 3; label++ {
			lk = append(lk, lp.Derive(label))
			ek = append(ek, eagerDerive(ep, label))
		}
		for _, i := range []int{2, 0, 1} {
			if p, q := lk[i].Perm(8), ek[i].Perm(8); fmt.Sprint(p) != fmt.Sprint(q) {
				t.Fatalf("seed %d child %d: %v != %v", seed, i, p, q)
			}
		}
	}
}

// TestResourceRingFIFO drives the wait ring through growth and wrap-around
// while grants are interleaved with new waiters, checking strict FIFO order.
func TestResourceRingFIFO(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, 1)
	var order []int
	next := 0
	hold := func(id int) func() {
		return func() {
			order = append(order, id)
			e.Schedule(1, r.Release)
		}
	}
	// Bursts of varying size keep the ring's head moving while it grows.
	for burst := 1; burst <= 9; burst++ {
		e.Schedule(Time(burst*3), func() {
			for k := 0; k < burst*2; k++ {
				r.Acquire(hold(next))
				next++
			}
		})
	}
	e.Run()
	if len(order) != next {
		t.Fatalf("%d grants for %d acquirers", len(order), next)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("grant %d went to acquirer %d: not FIFO", i, id)
		}
	}
	if r.Waiting() != 0 || r.InUse() != 0 {
		t.Fatalf("waiting %d in use %d after drain", r.Waiting(), r.InUse())
	}
}
