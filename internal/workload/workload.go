// Package workload defines the operation model and the runner that executes
// application I/O streams against the simulated file system.
//
// A workload is a set of ranks, each with a deterministic operation sequence
// produced by a Generator. The Runner plays every rank concurrently (ops
// within a rank are sequential, like a blocking POSIX I/O loop in an MPI
// rank), emits a trace Record per completed operation — the client-side
// monitor's raw input — and can loop forever to act as an interference
// workload.
package workload

import (
	"fmt"

	"quanterference/internal/lustre"
	"quanterference/internal/sim"
)

// Kind is an operation type.
type Kind int

const (
	Read Kind = iota
	Write
	Open
	Close
	Stat
	Create
	Unlink
	Mkdir
	Compute
)

var kindNames = [...]string{
	"read", "write", "open", "close", "stat", "create", "unlink", "mkdir", "compute",
}

func (k Kind) String() string { return kindNames[k] }

// IsMeta reports whether the op is a metadata operation.
func (k Kind) IsMeta() bool {
	switch k {
	case Open, Close, Stat, Create, Unlink, Mkdir:
		return true
	}
	return false
}

// IsIO reports whether the op reaches the file system at all.
func (k Kind) IsIO() bool { return k != Compute }

// Op is one operation in a rank's stream.
type Op struct {
	Kind   Kind
	Path   string
	Offset int64
	Size   int64
	// StripeCount applies to Create (0 = file system default).
	StripeCount int
	// Dur applies to Compute.
	Dur sim.Time
}

// Record is one completed I/O operation, the unit of client-side tracing
// (the analogue of a Darshan DXT entry).
type Record struct {
	Workload string
	Rank     int
	// Iter and Seq identify the op within the rank's stream across loop
	// iterations; (Rank, Iter, Seq) is the key used to match operations
	// between a baseline and an interference run.
	Iter int
	Seq  int
	Op   Op
	// Start and End are simulated timestamps.
	Start sim.Time
	End   sim.Time
	// Targets are the storage target indices the op touched
	// (OST ids, or the MDT index for metadata ops).
	Targets []int
}

// Duration returns the op's simulated latency.
func (r Record) Duration() sim.Time { return r.End - r.Start }

// Generator produces the op stream for one rank of a workload.
type Generator interface {
	// Name identifies the workload type (e.g. "ior-easy-write").
	Name() string
	// Ops returns rank r's full operation sequence for one iteration.
	Ops(rank int) []Op
	// Prepare pre-creates whatever on-disk state the ops consume (for
	// read-type workloads, the files written by an earlier phase). It
	// runs instantly before the workload starts.
	Prepare(fs *lustre.FS)
}

// Runner executes a Generator's ranks on the file system.
type Runner struct {
	FS   *lustre.FS
	Name string
	// Nodes carries the compute nodes; ranks are placed round-robin.
	Nodes []string
	Ranks int
	Gen   Generator
	// Loop restarts each rank's stream when it ends (interference mode).
	Loop bool
	// OnRecord observes every completed I/O op (may be nil).
	OnRecord func(Record)
	// OnDone fires when all ranks finish (never in Loop mode; may be nil).
	OnDone func()
	// WriteVia, when set, replaces direct client writes — e.g. routing
	// them through a burst buffer tier. It must eventually call done.
	WriteVia func(h *lustre.Handle, off, length int64, done func())
	// WriteViaFor, when set, supplies a per-node write route (e.g. that
	// node's own burst buffer, under a burst-buffer hardware profile). It
	// is resolved once per rank with the rank's compute node and wins over
	// WriteVia; returning nil falls back to direct client writes.
	WriteViaFor func(node string) func(h *lustre.Handle, off, length int64, done func())

	stopped  bool
	active   int
	started  bool
	prepared bool
	// mdt is the Targets of every metadata record, shared by all of them.
	mdt []int
	// ioOps counts the I/O ops of one pass over every rank's stream.
	ioOps int

	paused    bool
	held      []*rank
	heldBytes int64
}

// Stop makes every rank halt after its in-flight operation.
func (r *Runner) Stop() { r.stopped = true }

// Pause holds every rank at its next operation boundary: in-flight
// operations complete, but no rank issues another op until Resume. Held
// continuations queue FIFO (deterministic release order), and the byte sizes
// of the I/O ops held at the gate accumulate into HeldBytes — the "bytes
// deferred" a defer/reschedule mitigation policy reports. Pausing an already
// paused runner is a no-op.
func (r *Runner) Pause() { r.paused = true }

// Resume lifts a Pause: held ranks re-enter their streams in the order they
// arrived at the gate, and HeldBytes resets to zero. Ranks stopped while
// held exit instead of executing. Resuming a runner that is not paused is a
// no-op.
func (r *Runner) Resume() {
	if !r.paused {
		return
	}
	r.paused = false
	r.heldBytes = 0
	held := r.held
	r.held = nil
	for _, k := range held {
		k.exec()
	}
}

// Paused reports whether the pause gate is closed.
func (r *Runner) Paused() bool { return r.paused }

// HeldBytes is the total I/O volume (op sizes) of operations currently held
// at the pause gate. It resets on Resume.
func (r *Runner) HeldBytes() int64 { return r.heldBytes }

// IOOps is the number of I/O operations in one pass over every rank's
// stream, known once Start has generated the streams: the number of records
// a non-looping runner emits when it finishes.
func (r *Runner) IOOps() int { return r.ioOps }

// Running reports whether any rank is still executing.
func (r *Runner) Running() bool { return r.active > 0 }

// Start prepares the generator and launches all ranks.
func (r *Runner) Start() {
	if r.started {
		panic("workload: runner started twice")
	}
	r.started = true
	if r.Ranks <= 0 || len(r.Nodes) == 0 {
		panic("workload: runner needs ranks and nodes")
	}
	r.Gen.Prepare(r.FS)
	r.active = r.Ranks
	r.mdt = []int{r.FS.MDTIndex()}
	for id := 0; id < r.Ranks; id++ {
		node := r.Nodes[id%len(r.Nodes)]
		r.runRank(id, node)
	}
}

// rank is one rank's cursor through its op stream. A rank has at most one
// op in flight, so its continuations are methods bound once when the rank
// starts, and the steady-state op loop allocates nothing.
type rank struct {
	r       *Runner
	id      int
	client  *lustre.Client
	writeFn func(h *lustre.Handle, off, length int64, done func())
	ops     []Op
	handles map[string]*lustre.Handle

	iter, i int            // position of the op in flight
	start   sim.Time       // its issue time
	h       *lustre.Handle // its handle, for a data op

	onMeta, onData, onCompute func()
	onOpened                  func(*lustre.Handle)
}

func (r *Runner) runRank(id int, node string) {
	client := r.FS.Client(node)
	writeFn := client.Write
	if r.WriteViaFor != nil {
		if w := r.WriteViaFor(node); w != nil {
			writeFn = w
		}
	} else if r.WriteVia != nil {
		writeFn = r.WriteVia
	}
	k := &rank{r: r, id: id, client: client, writeFn: writeFn,
		ops: r.Gen.Ops(id), handles: make(map[string]*lustre.Handle)}
	for _, op := range k.ops {
		if op.Kind.IsIO() {
			r.ioOps++
		}
	}
	k.onMeta, k.onData, k.onCompute, k.onOpened = k.metaDone, k.dataDone, k.computeDone, k.opened
	k.exec()
}

func (r *Runner) finishRank() {
	r.active--
	if r.active == 0 && r.OnDone != nil {
		r.OnDone()
	}
}

// exec issues the rank's current op, or ends, holds or restarts the stream.
func (k *rank) exec() {
	r := k.r
	if r.stopped {
		r.finishRank()
		return
	}
	if r.paused {
		// Hold the rank at the gate; Resume re-enters exec, which
		// rechecks stopped so a Stop while held still wins.
		if k.i < len(k.ops) && k.ops[k.i].Kind.IsIO() {
			r.heldBytes += k.ops[k.i].Size
		}
		r.held = append(r.held, k)
		return
	}
	if k.i >= len(k.ops) {
		if !r.Loop {
			r.finishRank()
			return
		}
		k.iter++
		k.i = 0
		k.exec()
		return
	}
	op := &k.ops[k.i]
	k.start = r.FS.Eng.Now()
	switch op.Kind {
	case Compute:
		r.FS.Eng.Schedule(op.Dur, k.onCompute)
	case Create:
		k.client.Create(op.Path, op.StripeCount, k.onOpened)
	case Open:
		k.client.Open(op.Path, k.onOpened)
	case Close:
		h := k.handle(op)
		delete(k.handles, op.Path)
		k.client.Close(h, k.onMeta)
	case Stat:
		k.client.Stat(op.Path, k.onMeta)
	case Unlink:
		k.client.Unlink(op.Path, k.onMeta)
	case Mkdir:
		k.client.Mkdir(op.Path, k.onMeta)
	case Read:
		k.h = k.handle(op)
		k.client.Read(k.h, op.Offset, op.Size, k.onData)
	case Write:
		k.h = k.handle(op)
		k.writeFn(k.h, op.Offset, op.Size, k.onData)
	default:
		panic(fmt.Sprintf("workload: unknown op kind %d", op.Kind))
	}
}

func (k *rank) opened(h *lustre.Handle) {
	k.handles[k.ops[k.i].Path] = h
	k.emit(k.r.mdt)
}

func (k *rank) metaDone()    { k.emit(k.r.mdt) }
func (k *rank) computeDone() { k.emit(nil) }

// dataDone resolves the op's storage targets only when a record observer
// wants them.
func (k *rank) dataDone() {
	h := k.h
	k.h = nil
	var targets []int
	if k.r.OnRecord != nil {
		op := &k.ops[k.i]
		targets = h.Targets(op.Offset, op.Size)
	}
	k.emit(targets)
}

// emit records the completed op and issues the next one.
func (k *rank) emit(targets []int) {
	r := k.r
	if op := k.ops[k.i]; r.OnRecord != nil && op.Kind.IsIO() {
		r.OnRecord(Record{
			Workload: r.Name, Rank: k.id, Iter: k.iter, Seq: k.i,
			Op: op, Start: k.start, End: r.FS.Eng.Now(),
			Targets: targets,
		})
	}
	k.i++
	k.exec()
}

func (k *rank) handle(op *Op) *lustre.Handle {
	h, ok := k.handles[op.Path]
	if !ok {
		panic(fmt.Sprintf("workload: %s of %q without open handle", op.Kind, op.Path))
	}
	return h
}
