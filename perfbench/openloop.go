package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonArrivals returns the due times of n arrivals of a Poisson process
// at rate requests/s, drawn from rng.
func poissonArrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// openLoop is the timing record of one open-loop phase.
type openLoop struct {
	// latency[i] is request i's completion time minus its due time: a
	// request that had to wait for a sender because an earlier reply
	// stalled is charged that wait.
	latency []time.Duration
	// lateness[i] is how long after its due time request i was sent — the
	// generator's own lag.
	lateness []time.Duration
	// elapsed is from the phase start to the last completion; lastDue is
	// the last request's due time. Their difference is the backlog left
	// when the schedule ended.
	elapsed, lastDue time.Duration
	// sent counts requests sent; the rest were abandoned because the
	// backlog had grown past maxLag (sent[i] false, latency[i] zero).
	sent []bool
}

// clock abstracts time so the timer can be tested without sleeping.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

type wallClock struct{ origin time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.origin) }
func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// runOpenLoop sends requests at their due times from `senders` goroutines
// (never more in flight than senders) and times each from when it was due,
// not from when it was sent. send performs request i. A request whose turn
// comes more than maxLag after its due time is abandoned unsent: the
// offered rate is past capacity and the backlog would only grow.
func runOpenLoop(clk clock, due []time.Duration, senders int, maxLag time.Duration, send func(i, sender int)) openLoop {
	res := openLoop{
		latency:  make([]time.Duration, len(due)),
		lateness: make([]time.Duration, len(due)),
		sent:     make([]bool, len(due)),
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				clk.sleepUntil(due[i])
				res.lateness[i] = clk.now() - due[i]
				if res.lateness[i] > maxLag {
					continue
				}
				res.sent[i] = true
				send(i, s)
				res.latency[i] = clk.now() - due[i]
			}
		}(s)
	}
	wg.Wait()
	res.elapsed = clk.now()
	if len(due) > 0 {
		res.lastDue = due[len(due)-1]
	}
	return res
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
