package lustre

import (
	"fmt"

	"quanterference/internal/obs"
	"quanterference/internal/sim"
)

// Client is a compute node's Lustre client. All operations are asynchronous:
// the completion callback fires when the operation finishes in simulated
// time. A single Client may carry many application ranks; per-target RPC
// concurrency is limited like the real client's max_rpcs_in_flight.
type Client struct {
	Node string

	fs    *FS
	slots []*sim.Resource // one per target (OSTs then MDT)
	// bucket throttles bulk data when a QoS rule is set (see SetRateLimit).
	bucket *tokenBucket
	// rng draws the retry-backoff jitter; derived from the scenario seed
	// and the node name, so runs are exactly reproducible.
	rng *sim.RNG

	// Degraded-mode counters (see Retries/Timeouts/DegradedOps).
	retries     uint64
	timeouts    uint64
	degradedOps uint64

	// Readahead-efficiency counters (the Darshan-style client view);
	// nil unless instrument attached a sink.
	cRAHit      *obs.Counter
	cRAWait     *obs.Counter
	cRAMiss     *obs.Counter
	cRAPrefetch *obs.Counter
	cRetries    *obs.Counter
	cTimeouts   *obs.Counter
	cDegraded   *obs.Counter
}

// Handle is an open file with its layout cached client-side, plus the
// per-stream readahead state (cf. Lustre's per-file read-ahead windows).
type Handle struct {
	c   *Client
	Ino *Inode

	lastReadEnd int64
	seqStreak   int
	ra          map[int64]*raChunk // key: chunk start byte offset
}

// raChunk tracks one prefetched stripe-size chunk.
type raChunk struct {
	done    bool
	end     int64
	waiters []func()
	// inline backs waiters for the usual one or two waiting reads.
	inline [2]func()
}

func newClient(fs *FS, node string) *Client {
	var nodeMix int64
	for _, b := range node {
		nodeMix = nodeMix*131 + int64(b)
	}
	c := &Client{Node: node, fs: fs, rng: sim.NewRNG(fs.cfg.Seed ^ 0xc11e27 ^ nodeMix)}
	c.slots = make([]*sim.Resource, fs.NumTargets())
	for i := range c.slots {
		c.slots[i] = sim.NewResource(fs.Eng, fs.cfg.MaxRPCsInFlight)
	}
	return c
}

// Retries reports how many bulk RPCs this client resent after a timeout.
func (c *Client) Retries() uint64 { return c.retries }

// Timeouts reports how many bulk-RPC timeouts this client observed.
func (c *Client) Timeouts() uint64 { return c.timeouts }

// DegradedOps reports how many bulk RPCs needed at least one resend to
// complete — the client's degraded-mode counter.
func (c *Client) DegradedOps() uint64 { return c.degradedOps }

// instrument registers readahead-efficiency counters under the client's
// node name: reads fully served from prefetched data (hit), reads that had
// to wait on an in-flight prefetch (wait), reads that bypassed the window
// entirely (miss), and chunks prefetched.
func (c *Client) instrument(s *obs.Sink) {
	c.cRAHit = s.Counter("client", c.Node, "ra_hits")
	c.cRAWait = s.Counter("client", c.Node, "ra_waits")
	c.cRAMiss = s.Counter("client", c.Node, "ra_misses")
	c.cRAPrefetch = s.Counter("client", c.Node, "ra_prefetches")
	c.cRetries = s.Counter("client", c.Node, "retries")
	c.cTimeouts = s.Counter("client", c.Node, "timeouts")
	c.cDegraded = s.Counter("client", c.Node, "degraded_ops")
}

// metaCall is one metadata RPC in flight: client slot, request message,
// MDS service (mds.go), reply. Its steps are bound once when the pool first
// allocates it, so a metadata op allocates nothing in steady state.
type metaCall struct {
	c           *Client
	op          MetaOp
	path        string
	stripeCount int
	slot        *sim.Resource
	ino         *Inode
	arrival     sim.Time // at the MDS, for the op-latency histogram
	// Exactly one of done and opened is set: opened receives a fresh
	// Handle (Create, Open), done is everything else.
	done   func()
	opened func(*Handle)

	onSlot, onRequest, onThread, onServed, onIO, onReply func()
}

// metaRPC performs a metadata round trip to the MDS.
func (c *Client) metaRPC(op MetaOp, path string, stripeCount int, done func(), opened func(*Handle)) {
	m, fresh := c.fs.pools.meta.Get()
	if fresh {
		m.onSlot, m.onRequest, m.onThread = m.sendRequest, m.arrive, m.serve
		m.onServed, m.onIO, m.onReply = m.execute, m.finish, m.reply
	}
	m.c, m.op, m.path, m.stripeCount = c, op, path, stripeCount
	m.slot = c.slots[c.fs.MDTIndex()]
	m.done, m.opened = done, opened
	m.slot.Acquire(m.onSlot)
}

func (m *metaCall) sendRequest() {
	fs := m.c.fs
	fs.Net.Transfer(m.c.Node, fs.mds.Node, fs.cfg.ReqMsgBytes, m.onRequest)
}

// reply runs when the reply message lands on the client: it frees the RPC
// slot, recycles the call and completes the op.
func (m *metaCall) reply() {
	c, slot, ino, done, opened := m.c, m.slot, m.ino, m.done, m.opened
	m.ino, m.done, m.opened = nil, nil, nil
	c.fs.pools.meta.Put(m)
	slot.Release()
	if opened != nil {
		opened(&Handle{c: c, Ino: ino})
		return
	}
	done()
}

// Create makes (or truncate-opens) a file with the given stripe count
// (0 = file-system default) and returns an open handle.
func (c *Client) Create(path string, stripeCount int, done func(*Handle)) {
	c.metaRPC(MetaCreate, path, stripeCount, nil, done)
}

// Open opens an existing file.
func (c *Client) Open(path string, done func(*Handle)) {
	c.metaRPC(MetaOpen, path, 0, nil, done)
}

// Stat fetches attributes of an existing path.
func (c *Client) Stat(path string, done func()) {
	c.metaRPC(MetaStat, path, 0, done, nil)
}

// Close closes a handle.
func (c *Client) Close(h *Handle, done func()) {
	c.metaRPC(MetaClose, h.Ino.Path, 0, done, nil)
}

// Unlink removes a file.
func (c *Client) Unlink(path string, done func()) {
	c.metaRPC(MetaUnlink, path, 0, done, nil)
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string, done func()) {
	c.metaRPC(MetaMkdir, path, 0, done, nil)
}

// chunk is one per-OST piece of a striped byte range.
type chunk struct {
	ost    int   // OST id
	objOff int64 // object-local byte offset
	length int64
}

// chunkIter walks a file byte range as per-OST object ranges (RAID0), one
// stripe unit at a time, without materialising them.
type chunkIter struct {
	ino      *Inode
	cur, end int64
}

// chunks returns an iterator over the per-OST pieces of a byte range.
func (h *Handle) chunks(off, length int64) chunkIter {
	checkRange(h.Ino, off, length)
	return chunkIter{ino: h.Ino, cur: off, end: off + length}
}

func checkRange(ino *Inode, off, length int64) {
	if ino.Dir {
		panic("lustre: data op on directory " + ino.Path)
	}
	if off < 0 || length <= 0 {
		panic(fmt.Sprintf("lustre: bad range off=%d len=%d", off, length))
	}
}

// next returns the next piece, or false when the range is exhausted.
func (it *chunkIter) next() (chunk, bool) {
	if it.cur >= it.end {
		return chunk{}, false
	}
	ss := it.ino.StripeSize
	n := int64(len(it.ino.OSTs))
	unit := it.cur / ss        // global stripe unit index
	within := it.cur - unit*ss // offset inside the unit
	take := ss - within
	if it.cur+take > it.end {
		take = it.end - it.cur
	}
	it.cur += take
	objUnit := unit / n // unit index within the object
	return chunk{
		ost:    it.ino.OSTs[unit%n],
		objOff: objUnit*ss + within,
		length: take,
	}, true
}

// Targets returns the distinct OST ids a byte range touches, in stripe
// order. Consecutive stripe units land on consecutive layout entries, so the
// answer is a window of the layout read cyclically; it is returned as a
// slice of the inode's doubled layout and allocates nothing. The slice is
// shared: callers must not modify it.
func (h *Handle) Targets(off, length int64) []int {
	ino := h.Ino
	checkRange(ino, off, length)
	n := len(ino.OSTs)
	if len(ino.ostRing) != 2*n {
		ino.ostRing = append(append(make([]int, 0, 2*n), ino.OSTs...), ino.OSTs...)
	}
	first, last := off/ino.StripeSize, (off+length-1)/ino.StripeSize
	count := n
	if units := last - first + 1; units < int64(n) {
		count = int(units)
	}
	s0 := int(first % int64(n))
	return ino.ostRing[s0 : s0+count : s0+count]
}

// dataCall is the fan-in of one striped data op: it counts the op's bulk
// RPCs down and completes the op when the last one lands.
type dataCall struct {
	c         *Client
	h         *Handle
	off       int64
	length    int64
	write     bool
	remaining int
	done      func()
	// ra, when set, is the readahead chunk this op prefetches; completing
	// the op marks it fetched and wakes its waiters instead of calling done.
	ra *raChunk

	onPiece func()
}

// dataOp runs all chunks of a striped range concurrently, bounded by
// per-target RPC slots, and completes when the last chunk completes: by
// calling done, or for a prefetch (ra set) by settling the readahead chunk.
func (c *Client) dataOp(h *Handle, off, length int64, write bool, done func(), ra *raChunk) {
	d, fresh := c.fs.pools.data.Get()
	if fresh {
		d.onPiece = d.piece
	}
	d.c, d.h, d.off, d.length, d.write, d.done, d.ra = c, h, off, length, write, done, ra
	// Hold one count across issuing so the op cannot complete mid-loop.
	d.remaining = 1
	maxRPC := c.fs.cfg.MaxRPCBytes
	for it := h.chunks(off, length); ; {
		ch, ok := it.next()
		if !ok {
			break
		}
		// Split chunks larger than the RPC size cap.
		for sent := int64(0); sent < ch.length; {
			take := ch.length - sent
			if take > maxRPC {
				take = maxRPC
			}
			d.remaining++
			c.rpc(h.Ino, ch.ost, ch.objOff+sent, take, write, d.onPiece)
			sent += take
		}
	}
	d.piece()
}

func (d *dataCall) piece() {
	d.remaining--
	if d.remaining > 0 {
		return
	}
	h, end, write, done, ra := d.h, d.off+d.length, d.write, d.done, d.ra
	d.h, d.done, d.ra = nil, nil, nil
	d.c.fs.pools.data.Put(d)
	if write && end > h.Ino.Size {
		h.Ino.Size = end
	}
	if ra != nil {
		ra.fetched()
		return
	}
	done()
}

// rpc performs one bulk RPC to an OST, waiting for the client's token
// bucket first when a rate limit is set.
func (c *Client) rpc(ino *Inode, ostID int, objOff, length int64, write bool, done func()) {
	var start func()
	if c.fs.cfg.RPCTimeout > 0 {
		start = c.newAttempt(ino, ostID, objOff, length, write, done, 0).onStart
	} else {
		start = c.newBulk(ino, ostID, objOff, length, write, done).onSend
	}
	if c.bucket != nil {
		c.bucket.acquire(length, start)
		return
	}
	start()
}

// rpcAttempt is one send of a bulk RPC when the file system arms
// RPCTimeout. Each attempt is a full send (a bulkRPC); an attempt
// outstanding past the timeout is abandoned — its eventual completion is
// ignored, like a reply to a resent XID — and the RPC is resent after a
// bounded exponential backoff with deterministic seed-derived jitter. The
// final attempt carries no timeout, so the op always completes: degraded
// mode slows clients down, it never wedges them.
//
// An attempt is referenced by its send's reply and, when armed, by its
// timer (then its backoff); it returns to the pool when both have fired.
type rpcAttempt struct {
	c       *Client
	ino     *Inode
	ostID   int
	objOff  int64
	length  int64
	write   bool
	done    func()
	attempt int
	settled bool
	refs    int

	onStart, onReply, onTimeout, onRetry func()
}

func (c *Client) newAttempt(ino *Inode, ostID int, objOff, length int64, write bool, done func(), attempt int) *rpcAttempt {
	a, fresh := c.fs.pools.attempt.Get()
	if fresh {
		a.onStart, a.onReply, a.onTimeout, a.onRetry = a.start, a.reply, a.timeout, a.retry
	}
	a.c, a.ino, a.ostID, a.objOff, a.length, a.write = c, ino, ostID, objOff, length, write
	a.done, a.attempt, a.settled = done, attempt, false
	return a
}

func (a *rpcAttempt) start() {
	fs := a.c.fs
	a.refs = 1
	a.c.newBulk(a.ino, a.ostID, a.objOff, a.length, a.write, a.onReply).send()
	if a.attempt >= fs.cfg.RPCRetryLimit {
		return // last attempt rides to completion
	}
	a.refs++
	fs.Eng.Schedule(fs.cfg.RPCTimeout, a.onTimeout)
}

func (a *rpcAttempt) reply() {
	if a.settled {
		a.unref() // abandoned attempt: a later resend owns this op now
		return
	}
	a.settled = true
	if a.attempt > 0 {
		a.c.degradedOps++
		a.c.cDegraded.Inc()
	}
	done := a.done
	a.unref()
	done()
}

func (a *rpcAttempt) timeout() {
	if a.settled {
		a.unref()
		return
	}
	a.settled = true
	c, fs := a.c, a.c.fs
	c.timeouts++
	c.cTimeouts.Inc()
	backoff := fs.cfg.RPCBackoffBase << uint(a.attempt)
	backoff += c.rng.Int63n(backoff)    // deterministic jitter in [0, backoff)
	fs.Eng.Schedule(backoff, a.onRetry) // the timer's reference rides on
}

func (a *rpcAttempt) retry() {
	c := a.c
	c.retries++
	c.cRetries.Inc()
	next := c.newAttempt(a.ino, a.ostID, a.objOff, a.length, a.write, a.done, a.attempt+1)
	a.unref()
	next.start()
}

func (a *rpcAttempt) unref() {
	a.refs--
	if a.refs > 0 {
		return
	}
	a.ino, a.done = nil, nil
	a.c.fs.pools.attempt.Put(a)
}

// bulkRPC is one attempt of a bulk RPC: client slot, request (carrying the
// data for a write), OSS thread and CPU, OST data path, reply (carrying the
// data for a read).
type bulkRPC struct {
	c      *Client
	ino    *Inode
	ost    *OST
	slot   *sim.Resource
	objOff int64
	length int64
	write  bool
	done   func()

	onSend, onSlot, onRequest, onThread, onServed, onStored, onReply func()
}

func (c *Client) newBulk(ino *Inode, ostID int, objOff, length int64, write bool, done func()) *bulkRPC {
	b, fresh := c.fs.pools.bulk.Get()
	if fresh {
		b.onSend, b.onSlot, b.onRequest, b.onThread = b.send, b.request, b.arrive, b.serve
		b.onServed, b.onStored, b.onReply = b.served, b.stored, b.reply
	}
	b.c, b.ino, b.ost, b.slot = c, ino, c.fs.osts[ostID], c.slots[ostID]
	b.objOff, b.length, b.write, b.done = objOff, length, write, done
	return b
}

func (b *bulkRPC) send() { b.slot.Acquire(b.onSlot) }

func (b *bulkRPC) request() {
	bytes := b.c.fs.cfg.ReqMsgBytes
	if b.write {
		bytes += b.length // bulk data travels with a write request
	}
	b.c.fs.Net.Transfer(b.c.Node, b.ost.OSS.Node, bytes, b.onRequest)
}

func (b *bulkRPC) arrive() { b.ost.OSS.Threads.Acquire(b.onThread) }

func (b *bulkRPC) serve() { b.c.fs.Eng.Schedule(b.c.fs.cfg.OSSOpCPU, b.onServed) }

func (b *bulkRPC) served() {
	if b.write {
		b.ost.OSS.Threads.Release()
		b.ost.write(b.ino.ObjID, b.objOff, b.length, b.onStored)
		return
	}
	b.ost.read(b.ino.ObjID, b.objOff, b.length, b.onStored)
}

func (b *bulkRPC) stored() {
	bytes := b.c.fs.cfg.ReqMsgBytes
	if !b.write {
		// A read holds its service thread through the disk fetch and
		// returns the data with the reply.
		b.ost.OSS.Threads.Release()
		bytes += b.length
	}
	b.c.fs.Net.Transfer(b.ost.OSS.Node, b.c.Node, bytes, b.onReply)
}

func (b *bulkRPC) reply() {
	slot, done := b.slot, b.done
	b.ino, b.done = nil, nil
	b.c.fs.pools.bulk.Put(b)
	slot.Release()
	done()
}

// Write stores length bytes at off, completing when the data is accepted by
// every target's write-back cache (throttled when caches are full). Writing
// through a handle drops its readahead cache.
func (c *Client) Write(h *Handle, off, length int64, done func()) {
	h.ra = nil
	c.dataOp(h, off, length, true, done, nil)
}

// readCall is one Client.Read in flight: it waits for the readahead chunks
// covering the range (or for its own data op), then trims the window and
// completes.
type readCall struct {
	c       *Client
	h       *Handle
	end     int64 // off + length
	pending int   // readahead chunks still being fetched
	done    func()

	onChunk, onFinish func()
}

func (r *readCall) chunk() {
	r.pending--
	if r.pending == 0 {
		r.finish()
	}
}

func (r *readCall) finish() {
	h, end, done := r.h, r.end, r.done
	r.h, r.done = nil, nil
	r.c.fs.pools.read.Put(r)
	h.trimRA(end)
	done()
}

// Read fetches length bytes at off. Sequential streams (each read starting
// where the previous ended) trigger readahead: the next ReadAheadChunks
// stripe-size chunks are fetched in the background, and reads covered by
// prefetched data complete as soon as the prefetch RPC lands. This is what
// keeps several RPCs in flight per sequential stream, as on a real client.
func (c *Client) Read(h *Handle, off, length int64, done func()) {
	raChunks := int64(c.fs.cfg.ReadAheadChunks)
	if raChunks == 0 {
		c.dataOp(h, off, length, false, done, nil)
		return
	}
	if off == h.lastReadEnd {
		h.seqStreak++
	} else {
		h.seqStreak = 0
	}
	h.lastReadEnd = off + length
	// Readahead arms only after two back-to-back sequential reads (a
	// ramp-up, like the kernel's), so a single accidental match — e.g.
	// the first op of a strided pattern — doesn't prefetch megabytes.
	sequential := h.seqStreak >= 1 && off > 0 || h.seqStreak >= 2

	cs := h.Ino.StripeSize
	firstChunk := (off / cs) * cs
	lastChunk := ((off + length - 1) / cs) * cs

	// Served by the readahead window?
	covered := h.ra != nil
	if covered {
		for chunk := firstChunk; chunk <= lastChunk; chunk += cs {
			e, ok := h.ra[chunk]
			if !ok || e.end < min64ra(chunk+cs, off+length) {
				covered = false
				break
			}
		}
	}
	r, fresh := c.fs.pools.read.Get()
	if fresh {
		r.onChunk, r.onFinish = r.chunk, r.finish
	}
	r.c, r.h, r.end, r.done = c, h, off+length, done
	if covered {
		for chunk := firstChunk; chunk <= lastChunk; chunk += cs {
			if e := h.ra[chunk]; !e.done {
				r.pending++
				e.waiters = append(e.waiters, r.onChunk)
			}
		}
		if r.pending == 0 {
			c.cRAHit.Inc()
			// Entirely cache-resident: page-cache copy cost only.
			c.fs.Eng.Schedule(c.fs.cfg.CacheHitTime, r.onFinish)
		} else {
			c.cRAWait.Inc()
		}
	} else {
		c.cRAMiss.Inc()
		c.dataOp(h, off, length, false, r.onFinish, nil)
	}
	if sequential {
		h.extendRA(lastChunk+cs, raChunks)
	}
}

func min64ra(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// extendRA issues prefetch RPCs for up to n chunks starting at from.
func (h *Handle) extendRA(from, n int64) {
	cs := h.Ino.StripeSize
	if h.ra == nil {
		h.ra = make(map[int64]*raChunk)
	}
	for k := int64(0); k < n; k++ {
		chunk := from + k*cs
		if chunk >= h.Ino.Size {
			return
		}
		if _, ok := h.ra[chunk]; ok {
			continue
		}
		length := cs
		if chunk+length > h.Ino.Size {
			length = h.Ino.Size - chunk
		}
		e := &raChunk{end: chunk + length}
		e.waiters = e.inline[:0]
		h.ra[chunk] = e
		h.c.cRAPrefetch.Inc()
		h.c.dataOp(h, chunk, length, false, nil, e)
	}
}

// fetched marks a prefetched chunk as landed and wakes the reads waiting
// on it.
func (e *raChunk) fetched() {
	e.done = true
	for _, w := range e.waiters {
		w()
	}
	e.waiters = nil
}

// trimRA drops fully consumed chunks behind the stream position.
func (h *Handle) trimRA(consumed int64) {
	for chunk, e := range h.ra {
		if e.done && e.end <= consumed {
			delete(h.ra, chunk)
		}
	}
}
