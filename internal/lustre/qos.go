package lustre

import (
	"quanterference/internal/sim"
)

// tokenBucket is a byte-rate limiter for a client's bulk data path,
// modelling the effect of a Lustre NRS token-bucket-filter rule applied to
// one client NID (Qian et al., the paper's reference [13]).
//
// Acquire never blocks the caller; callbacks run once enough tokens accrue,
// FIFO. Changing the rate re-schedules pending waiters.
type tokenBucket struct {
	eng   *sim.Engine
	pools *callPools // the owning FS's

	rate     float64 // bytes/sec; <= 0 means unlimited
	capacity float64 // burst size in bytes
	tokens   float64
	last     sim.Time

	waiters sim.FIFO[bucketWaiter]
	timer   uint64 // generation tag for the pending wakeup
}

type bucketWaiter struct {
	bytes float64
	fn    func()
}

func newTokenBucket(eng *sim.Engine, pools *callPools) *tokenBucket {
	return &tokenBucket{eng: eng, pools: pools}
}

// bucketTimer is one armed wakeup, tagged with the generation it was armed
// under; a superseded one fires as a no-op.
type bucketTimer struct {
	b    *tokenBucket
	gen  uint64
	fire func()
}

func (t *bucketTimer) onFire() {
	b, gen := t.b, t.gen
	t.b = nil
	b.pools.bucketTimer.Put(t)
	if gen == b.timer {
		b.release()
	}
}

// refill accrues tokens up to now.
func (b *tokenBucket) refill() {
	now := b.eng.Now()
	if b.rate > 0 {
		b.tokens += b.rate * sim.ToSeconds(now-b.last)
		if b.tokens > b.capacity {
			b.tokens = b.capacity
		}
	}
	b.last = now
}

// setRate configures the limit (bytesPerSec <= 0 disables). The burst
// capacity is one tenth of a second of traffic, at least one request.
func (b *tokenBucket) setRate(bytesPerSec float64) {
	b.refill()
	b.rate = bytesPerSec
	b.capacity = bytesPerSec / 10
	if b.capacity < 1<<20 {
		b.capacity = 1 << 20
	}
	if b.tokens > b.capacity {
		b.tokens = b.capacity
	}
	if bytesPerSec <= 0 {
		b.drainAll()
		return
	}
	b.arm()
}

// limited reports whether a rate is in force.
func (b *tokenBucket) limited() bool { return b.rate > 0 }

// acquire runs fn once n bytes of tokens are available (immediately when
// unlimited).
func (b *tokenBucket) acquire(n int64, fn func()) {
	if !b.limited() && b.waiters.Len() == 0 {
		fn()
		return
	}
	b.refill()
	if b.waiters.Len() == 0 && b.tokens >= b.need(float64(n)) {
		b.tokens -= float64(n)
		fn()
		return
	}
	b.waiters.Push(bucketWaiter{bytes: float64(n), fn: fn})
	b.arm()
}

// drainAll releases every waiter (rate removed).
func (b *tokenBucket) drainAll() {
	for b.waiters.Len() > 0 {
		b.eng.Schedule(0, b.waiters.Pop().fn)
	}
}

// need is the token level required to grant a waiter: requests larger than
// the burst capacity borrow — they are granted at a full bucket and push
// the level negative, preserving the long-term rate.
func (b *tokenBucket) need(bytes float64) float64 {
	if bytes > b.capacity {
		return b.capacity
	}
	return bytes
}

// arm schedules the wakeup for the head waiter.
func (b *tokenBucket) arm() {
	if b.waiters.Len() == 0 || b.rate <= 0 {
		return
	}
	b.timer++
	deficit := b.need(b.waiters.Front().bytes) - b.tokens
	delay := sim.Time(1)
	if deficit > 0 {
		delay = sim.Time(deficit / b.rate * float64(sim.Second))
		if delay < 1 {
			delay = 1
		}
	}
	t, fresh := b.pools.bucketTimer.Get()
	if fresh {
		t.fire = t.onFire
	}
	t.b, t.gen = b, b.timer
	b.eng.Schedule(delay, t.fire)
}

// release grants as many head waiters as tokens allow, then re-arms.
func (b *tokenBucket) release() {
	b.refill()
	for b.waiters.Len() > 0 {
		if b.limited() && b.tokens < b.need(b.waiters.Front().bytes) {
			break
		}
		w := b.waiters.Pop()
		if b.limited() {
			b.tokens -= w.bytes
		}
		w.fn()
	}
	b.arm()
}

// SetRateLimit throttles this client's bulk data RPCs to bytesPerSec
// (<= 0 removes the limit). Metadata RPCs are unaffected, like an NRS-TBF
// rule scoped to the data service.
func (c *Client) SetRateLimit(bytesPerSec float64) {
	if c.bucket == nil {
		c.bucket = newTokenBucket(c.fs.Eng, &c.fs.pools)
	}
	c.bucket.setRate(bytesPerSec)
}

// RateLimited reports whether a limit is currently in force.
func (c *Client) RateLimited() bool {
	return c.bucket != nil && c.bucket.limited()
}
