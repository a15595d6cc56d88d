package sim

import "math/rand"

// RNG wraps math/rand with a tiny convenience surface used across the
// simulator. Every simulated component derives its own RNG from a root seed
// so that runs are reproducible and components are statistically decoupled.
//
// Seeding a math/rand source is expensive (it fills a 607-word table), and
// most components of a run never draw: a disk that sees no random I/O, a
// client whose RPCs never time out. So an RNG stores its seed and seeds the
// source on the first draw or Derive. The streams are exactly those of an
// eagerly seeded source.
type RNG struct {
	seed int64
	r    *rand.Rand // nil until the first draw
}

// NewRNG returns a generator for seed; the source is seeded on first use.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// src returns the underlying generator, seeding it on first use.
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.seed))
	}
	return g.r
}

// Derive returns a child generator whose seed mixes the parent stream with
// the supplied label, so distinct labels give independent streams.
func (g *RNG) Derive(label int64) *RNG {
	mix := uint64(g.src().Int63()) ^ (uint64(label) * 0x9e3779b97f4a7c15)
	return NewRNG(int64(mix >> 1))
}

// Float64 returns a uniform float in [0, 1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Intn returns a uniform int in [0, n).
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Int63n returns a uniform int64 in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.src().Int63n(n) }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.src().NormFloat64() }

// Uniform returns a uniform float in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.src().Float64()
}

// Shuffle permutes a slice in place.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.src().Shuffle(n, swap) }
