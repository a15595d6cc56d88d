package sim

// Pool is a free list of *T for the continuation structs of one simulation
// object. A pool belongs to the Engine, Network or file system that owns the
// work it recycles, never to a package-level variable or a sync.Pool: runs
// execute on concurrent goroutines (par), and a shared pool would couple
// them. A pool keeps every struct it ever handed out, so it retains at most
// the peak number of calls its run had in flight at once.
type Pool[T any] struct {
	free      []*T
	allocated int
}

// Get returns a recycled struct, or a new zero one with fresh set so the
// caller can bind its step methods once.
func (p *Pool[T]) Get() (x *T, fresh bool) {
	if n := len(p.free); n > 0 {
		x = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x, false
	}
	p.allocated++
	return new(T), true
}

// Put returns x to the pool. The caller first drops x's references to the
// caller's continuation and other per-call objects, so a free struct keeps
// no finished call's state alive.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }

// PoolStats counts a pool's structs: how many it ever allocated and how many
// are free. When no call is in flight the two are equal; a free count above
// the allocated one means a struct was released twice.
type PoolStats struct {
	Allocated, Free int
}

// Stats reports the pool's counts.
func (p *Pool[T]) Stats() PoolStats { return PoolStats{p.allocated, len(p.free)} }

// FIFO is a first-in first-out queue on a growable ring buffer. Push and Pop
// are O(1), and a queue whose length stays bounded allocates nothing once
// the ring has grown to that bound. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends x at the back.
func (q *FIFO[T]) Push(x T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = x
	q.n++
}

// Front returns the oldest item, which must exist, without removing it.
func (q *FIFO[T]) Front() *T { return &q.buf[q.head] }

// Pop removes and returns the oldest item, which must exist. Its slot is
// cleared so the queue retains nothing it no longer holds.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of empty FIFO")
	}
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return x
}
